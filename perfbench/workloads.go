package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"liger/internal/analyze"
	"liger/internal/cluster"
	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/generate"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/metrics"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/stats"
	"liger/internal/trace"
)

// A workload is a fixed simulated experiment. setup builds every
// engine, allocator and arrival trace the experiment needs (the
// benchmark's setup_s); the function it returns runs the simulation
// (host_s). Both draw their inputs from env.seed only.
type workload struct {
	name  string
	setup func(e *env) (func() result, error)
}

// env is what a workload's setup receives: the seed, and the tracer of
// a traced run (nil otherwise).
type env struct {
	seed int64
	tr   *tracer
}

// result is one repetition's outcome: the simulated record, the
// per-layer counters read from the simulator's public stats, the names
// of points that returned an error, and the host time of each point.
type result struct {
	rec    record
	c      counters
	points int
	errs   map[string]error
	// laps[i] is the host time from the start of point i to the start
	// of the next one, or to the end of the run for the last.
	laps []time.Duration
	mark time.Time
}

func newResult() result { return result{c: counters{}, errs: map[string]error{}} }

// next starts the run's next point: it counts the point and ends the
// lap of the one before.
func (r *result) next() {
	r.points++
	r.lap()
}

// lap ends the current point's lap, if one is open, and opens another.
func (r *result) lap() {
	now := time.Now()
	if !r.mark.IsZero() {
		r.laps = append(r.laps, now.Sub(r.mark))
	}
	r.mark = now
}

// counters accumulates per-layer values by metric name.
type counters map[string]float64

func (c counters) max(name string, v float64) {
	if v > c[name] {
		c[name] = v
	}
}

var workloads = []workload{
	{
		name:  "fig10-context",
		setup: setupFig10,
	},
	{
		name:  "decode-kvpressure",
		setup: setupDecode,
	},
	{
		name:  "fleet-disagg",
		setup: setupFleet,
	},
	{
		name:  "traced-explain",
		setup: setupExplain,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Fig. 10 reference: Liger's saturated throughput over Intra-Op's,
// general tasks (§4.2).
const (
	paperGainV100 = 1.15
	paperGainA100 = 1.52
)

// paperErrPct is the mean absolute relative error, in percent, of the
// simulated Fig. 10 throughput gains against the paper's.
func paperErrPct(v100, a100 float64) float64 {
	return 100 * (math.Abs(v100/paperGainV100-1) + math.Abs(a100/paperGainA100-1)) / 2
}

// meanSeq is the midpoint of the paper's 16–128 sequence range.
const meanSeq = 72

// intraCapacity is the intra-operator runtime's analytic saturated
// throughput in batches/s for one workload shape; arrival rates are
// fractions of it so every sweep straddles saturation.
func intraCapacity(node hw.Node, spec model.Spec, w model.Workload) (float64, error) {
	ks, err := parallel.NewCompiler(node, nccl.Config{}).IntraOp(spec, node.NumGPUs, w)
	if err != nil {
		return 0, err
	}
	c, m := parallel.TotalDurations(ks)
	return float64(time.Second) / float64(c+m), nil
}

// enginePoint is one single-node simulation: an engine and its input.
type enginePoint struct {
	name     string
	node     string
	spec     model.Spec
	eng      *core.Engine
	arrivals []serve.Arrival
}

func (e *env) newEngine(opts core.Options) (*core.Engine, error) {
	var eng *core.Engine
	err := e.tr.do("core", "NewEngine", func() (err error) {
		eng, err = core.NewEngine(opts)
		return err
	})
	return eng, err
}

// runtimeOf returns the engine's runtime, behind the timing wrapper in
// a traced run.
func (e *env) runtimeOf(eng *core.Engine, spec model.Spec) runtimes.Runtime {
	if e.tr == nil {
		return eng.Runtime()
	}
	return wrapRuntime(eng.Runtime(), e.tr, submission{
		kind: eng.Kind().String(), comp: eng.Compiler(), spec: spec, tp: eng.SimNode().NumDevices(),
	})
}

// serveBatches serves a point's batch trace over its engine's runtime,
// the same driver Engine.Serve runs.
func (e *env) serveBatches(p enginePoint) (serve.Result, error) {
	return serve.Run(p.eng.Clock(), e.runtimeOf(p.eng, p.spec), p.arrivals)
}

// engineCounters adds an engine's event-engine, device and scheduler
// counters.
func engineCounters(c counters, eng *core.Engine) {
	st := eng.Clock().Stats()
	c["simclock.events"] += float64(st.Fired)
	c.max("simclock.max_pending", float64(st.MaxPending))
	ev := eng.SimNode().EventCounters()
	c["gpusim.events_stream"] += float64(ev.Stream)
	c["gpusim.events_device"] += float64(ev.Device)
	c["gpusim.events_collective"] += float64(ev.Collective)
	c["gpusim.events_host"] += float64(ev.Host)
	for _, d := range eng.SimNode().Stats() {
		c["gpusim.kernels"] += float64(d.KernelsRun)
	}
	if l, ok := eng.Runtime().(*runtimes.Liger); ok {
		s := l.Scheduler().Stats()
		c["liger.rounds"] += float64(s.Rounds)
		c["liger.decompositions"] += float64(s.Decompositions)
		c["liger.empty_secondary"] += float64(s.EmptySecondary)
	}
}

func ns(d time.Duration) float64 { return float64(d) }

// batchStats is the simulated record of one batch-serving point.
func batchStats(res serve.Result, arrivals int) map[string]float64 {
	return map[string]float64{
		"arrivals":    float64(arrivals),
		"completed":   float64(res.Completed),
		"failed":      float64(res.Failed),
		"shed":        float64(res.Shed),
		"retries":     float64(res.Retries),
		"hedges":      float64(res.Hedges),
		"failovers":   float64(res.Failovers),
		"thr_req_s":   res.ThroughputRequests(),
		"goodput":     res.PolicyGoodput(),
		"avg_lat_ns":  ns(res.AvgLatency),
		"p50_ns":      ns(res.P50),
		"p99_ns":      ns(res.P99),
		"makespan_ns": ns(res.Makespan),
	}
}

// genStats is the simulated record of one generative point.
func genStats(res generate.Result, sequences int, makespan time.Duration) map[string]float64 {
	return map[string]float64{
		"sequences":    float64(sequences),
		"completed":    float64(res.Conversations),
		"ttft_ns":      ns(res.AvgTTFT()),
		"ttft_p50_ns":  ns(stats.Percentile(res.TTFT, 50)),
		"tpot_ns":      ns(res.AvgTPOT()),
		"tpot_p50_ns":  ns(stats.Percentile(res.TPOT, 50)),
		"total_p99_ns": ns(stats.Percentile(res.Total, 99)),
		"makespan_ns":  ns(makespan),
	}
}

// fig10-context: OPT-30B at batch 2 on the V100 and A100 nodes, all four
// runtimes, at arrival rates below and beyond Intra-Op saturation.
const fig10Batches = 50

var fig10Fractions = []float64{0.8, 1.4}

func setupFig10(e *env) (func() result, error) {
	spec := model.OPT30B()
	nodes := []struct {
		key  string
		node hw.Node
	}{{"v100", hw.V100Node()}, {"a100", hw.A100Node()}}
	var pts []enginePoint
	for _, n := range nodes {
		capacity, err := intraCapacity(n.node, spec, model.Workload{Batch: 2, SeqLen: meanSeq, Phase: model.Context})
		if err != nil {
			return nil, err
		}
		for _, kind := range core.Kinds() {
			for _, f := range fig10Fractions {
				eng, err := e.newEngine(core.Options{Node: n.node, Model: spec, Runtime: kind})
				if err != nil {
					return nil, err
				}
				arr, err := serve.Generate(serve.TraceConfig{
					Batches: fig10Batches, BatchSize: 2, RatePerSec: f * capacity,
					MinSeq: 16, MaxSeq: 128, Phase: model.Context, Seed: e.seed,
				})
				if err != nil {
					return nil, err
				}
				pts = append(pts, enginePoint{
					name: fmt.Sprintf("%s/%s/%.1fx", n.key, kind, f), node: n.key,
					spec: spec, eng: eng, arrivals: arr,
				})
			}
		}
	}
	return func() result {
		r := newResult()
		best := map[string]float64{}
		for _, p := range pts {
			r.next()
			var res serve.Result
			err := e.tr.do("serve", "Run", func() (err error) {
				res, err = e.serveBatches(p)
				return err
			})
			if err != nil {
				r.errs[p.name] = err
				continue
			}
			r.rec.add(p.name, batchStats(res, len(p.arrivals)))
			engineCounters(r.c, p.eng)
			key := p.node + "/" + p.eng.Kind().String()
			best[key] = math.Max(best[key], res.ThroughputBatches())
		}
		gain := func(node string) float64 {
			if intra := best[node+"/"+core.KindIntraOp.String()]; intra > 0 {
				return best[node+"/"+core.KindLiger.String()] / intra
			}
			return 0
		}
		v, a := gain("v100"), gain("a100")
		r.c["sim.thr_gain_v100"] = v
		r.c["sim.thr_gain_a100"] = a
		r.c["sim.paper_err_pct"] = paperErrPct(v, a)
		return r
	}, nil
}

// decode-kvpressure: OPT-66B on one A100 node, long prompts and
// generations, a 64-sequence pool over the paged KV allocator, so the
// batcher preempts and recomputes.
const (
	decodeSequences = 64
	decodePrompt    = 768
	decodeGen       = 128
	decodePool      = 64
	decodeRateFrac  = 2
)

func setupDecode(e *env) (func() result, error) {
	node, spec := hw.A100Node(), model.OPT66B()
	capacity, err := intraCapacity(node, spec, model.Workload{Batch: 1, SeqLen: decodePrompt, Phase: model.Context})
	if err != nil {
		return nil, err
	}
	type decodePoint struct {
		enginePoint
		kv  *kvcache.PagedManager
		cfg generate.ContinuousConfig
	}
	var pts []decodePoint
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp} {
		eng, err := e.newEngine(core.Options{Node: node, Model: spec, Runtime: kind})
		if err != nil {
			return nil, err
		}
		var kv *kvcache.PagedManager
		err = e.tr.do("kvcache", "NewPaged", func() (err error) {
			kv, err = kvcache.NewPaged(node, spec, decodePool, decodePrompt+decodeGen, kvcache.PagedConfig{})
			return err
		})
		if err != nil {
			return nil, err
		}
		pts = append(pts, decodePoint{
			enginePoint: enginePoint{name: "a100/" + kind.String(), spec: spec, eng: eng},
			kv:          kv,
			cfg: generate.ContinuousConfig{
				Sequences: decodeSequences, RatePerSec: decodeRateFrac * capacity,
				PromptLen: decodePrompt, GenTokens: decodeGen, MaxPool: decodePool, Seed: e.seed,
			},
		})
	}
	return func() result {
		r := newResult()
		for _, p := range pts {
			r.next()
			cfg := p.cfg
			cfg.KV = p.kv
			rt := e.runtimeOf(p.eng, p.spec)
			if e.tr != nil {
				cfg.KV = wrapKV(p.kv, e.tr)
			}
			var res generate.ContinuousResult
			err := e.tr.do("generate", "RunContinuous", func() (err error) {
				res, err = generate.RunContinuous(p.eng.Clock(), rt, cfg)
				return err
			})
			if err == nil {
				err = p.kv.InvariantErr()
			}
			if err != nil {
				r.errs[p.name] = err
				continue
			}
			st := genStats(res.Result, cfg.Sequences, res.Makespan)
			st["preemptions"] = float64(res.Preemptions)
			st["recomputed_tokens"] = float64(res.RecomputedTokens)
			st["iterations"] = float64(res.Iterations)
			st["mean_pool"] = res.MeanPool
			st["kv_peak_blocks"] = float64(p.kv.PeakUsedBlocks())
			r.rec.add(p.name, st)
			engineCounters(r.c, p.eng)
			r.c["serve.iterations"] += float64(res.Iterations)
			r.c["serve.preemptions"] += float64(res.Preemptions)
			r.c["serve.recomputed_tokens"] += float64(res.RecomputedTokens)
			r.c.max("serve.mean_pool", res.MeanPool)
			r.c.max("kvcache.peak_blocks", float64(p.kv.PeakUsedBlocks()))
			r.c.max("sim.ttft_p50_ms", st["ttft_p50_ns"]/1e6)
			r.c.max("sim.tpot_p50_ms", st["tpot_p50_ns"]/1e6)
			r.c.max("sim.makespan_s", res.Makespan.Seconds())
		}
		return r
	}, nil
}

// fleet-disagg: three OPT-30B replicas and a spare over InfiniBand
// behind the hedging router, with and without node 0 lost mid-run;
// then 2 prefill + 2 decode nodes serving generative traffic.
const (
	fleetBatches     = 50
	fleetReplicas    = 3
	fleetUtilization = 0.6
	fleetLossAt      = 0.45
	disaggSequences  = 32
	disaggPrompt     = 96
	disaggGen        = 32
	disaggPool       = 8
	disaggRateFrac   = 1.2
)

// shardWorkers is the Sharded executor's worker count: at most two, and
// no more than the host's CPUs.
func shardWorkers() int { return min(2, runtime.NumCPU()) }

func setupFleet(e *env) (func() result, error) {
	node, spec := hw.A100Node(), model.OPT30B()
	capacity, err := intraCapacity(node, spec, model.Workload{Batch: 2, SeqLen: meanSeq, Phase: model.Context})
	if err != nil {
		return nil, err
	}
	rate := fleetUtilization * fleetReplicas * capacity
	solo := time.Duration(float64(time.Second) / capacity)
	horizon := time.Duration(float64(fleetBatches) / rate * float64(time.Second))
	pol := serve.Policy{Deadline: 2 * solo, MaxRetries: 3, Backoff: solo / 2, BackoffCap: 4 * solo, QueueLimit: 24}
	type fleetPoint struct {
		name     string
		fleet    *cluster.Fleet
		arrivals []serve.Arrival
	}
	var fleets []fleetPoint
	for _, loss := range []bool{false, true} {
		cfg := cluster.Config{
			Cluster: hw.Cluster{Name: "a100-x3", Node: node, Nodes: fleetReplicas, Spares: 1, Network: hw.IBNetwork()},
			Model:   spec, Runtime: core.KindLiger, Workers: shardWorkers(),
		}
		name := "fleet/Liger/none"
		if loss {
			name = "fleet/Liger/node0-lost"
			cfg.Faults = &faults.Schedule{Events: []faults.Event{{
				Kind: faults.NodeFail, Node: 0, Start: time.Duration(fleetLossAt * float64(horizon)),
			}}}
		}
		var f *cluster.Fleet
		err := e.tr.do("cluster", "New", func() (err error) {
			f, err = cluster.New(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		arr, err := serve.Generate(serve.TraceConfig{
			Batches: fleetBatches, BatchSize: 2, RatePerSec: rate,
			MinSeq: 16, MaxSeq: 128, Phase: model.Context, Seed: e.seed,
		})
		if err != nil {
			return nil, err
		}
		fleets = append(fleets, fleetPoint{name: name, fleet: f, arrivals: arr})
	}
	prefillCap, err := intraCapacity(node, spec, model.Workload{Batch: 1, SeqLen: disaggPrompt, Phase: model.Context})
	if err != nil {
		return nil, err
	}
	var d *cluster.Disagg
	err = e.tr.do("cluster", "NewDisagg", func() (err error) {
		d, err = cluster.NewDisagg(cluster.DisaggConfig{
			Node: node, Network: hw.IBNetwork(), PrefillNodes: 2, DecodeNodes: 2,
			Model: spec, Runtime: core.KindLiger,
			Sequences: disaggSequences, RatePerSec: disaggRateFrac * 2 * prefillCap,
			PromptLen: disaggPrompt, GenTokens: disaggGen, MaxPool: disaggPool,
			Seed: e.seed, Workers: shardWorkers(),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return func() result {
		r := newResult()
		goodput := map[string]float64{}
		for _, p := range fleets {
			r.next()
			rp := serve.RouterPolicy{Hedge: 2 * solo, Seed: e.seed}
			if e.tr != nil {
				rp.Tracer = e.tr
			}
			var res serve.Result
			err := e.tr.do("serve", "RunFleet", func() (err error) {
				res, err = serve.RunFleet(p.fleet, p.arrivals, pol, rp)
				return err
			})
			if err != nil {
				r.errs[p.name] = err
				continue
			}
			r.rec.add(p.name, batchStats(res, len(p.arrivals)))
			goodput[p.name] = res.PolicyGoodput()
			sh := p.fleet.ShardStats()
			r.c["simclock.windows"] += float64(sh.Windows)
			r.c["simclock.posts"] += float64(sh.Posts)
			r.c["simclock.stalls"] += float64(sh.Stalls)
			r.c["serve.hedges"] += float64(res.Hedges)
			r.c["serve.retries"] += float64(res.Retries)
			r.c["serve.shed"] += float64(res.Shed)
			r.c["cluster.failovers"] += float64(res.Failovers)
		}
		if base := goodput["fleet/Liger/none"]; base > 0 {
			r.c["sim.goodput_retained"] = goodput["fleet/Liger/node0-lost"] / base
		}
		r.next()
		var res cluster.DisaggResult
		err := e.tr.do("cluster", "Disagg.Run", func() (err error) {
			res, err = d.Run()
			return err
		})
		if err != nil {
			r.errs["disagg/Liger"] = err
			return r
		}
		st := genStats(res.Result, disaggSequences, res.Makespan)
		st["kv_transfers"] = float64(res.KVTransfers)
		st["kv_transfer_bytes"] = float64(res.KVTransferBytes)
		st["preemptions"] = float64(res.Preemptions)
		st["iterations"] = float64(res.Iterations)
		st["mean_pool"] = res.MeanPool
		r.rec.add("disagg/Liger", st)
		sh := d.Stats()
		r.c["simclock.windows"] += float64(sh.Windows)
		r.c["simclock.posts"] += float64(sh.Posts)
		r.c["simclock.stalls"] += float64(sh.Stalls)
		r.c["cluster.kv_transfers"] += float64(res.KVTransfers)
		r.c["cluster.kv_transfer_mb"] += float64(res.KVTransferBytes) / (1 << 20)
		r.c["serve.iterations"] += float64(res.Iterations)
		r.c["serve.preemptions"] += float64(res.Preemptions)
		r.c.max("serve.mean_pool", res.MeanPool)
		r.c["sim.ttft_p50_ms"] = st["ttft_p50_ns"] / 1e6
		r.c["sim.tpot_p50_ms"] = st["tpot_p50_ns"] / 1e6
		r.c["sim.makespan_s"] = res.Makespan.Seconds()
		return r
	}, nil
}

// traced-explain: one saturated Liger run served bare and again under
// trace.Recorder, analyzed, snapshotted and exported; then one
// continuous run under trace.ServingRecorder, analyzed and exported.
const (
	explainBatches   = 16
	explainRateFrac  = 1.4
	explainSequences = 48
	explainPrompt    = 96
	explainGen       = 32
	explainPool      = 8
)

// byteCounter is an io.Writer that keeps only the byte count, so
// exports are priced without touching the disk.
type byteCounter int64

func (b *byteCounter) Write(p []byte) (int, error) {
	*b += byteCounter(len(p))
	return len(p), nil
}

func setupExplain(e *env) (func() result, error) {
	node, spec := hw.A100Node(), model.OPT30B()
	capacity, err := intraCapacity(node, spec, model.Workload{Batch: 2, SeqLen: meanSeq, Phase: model.Context})
	if err != nil {
		return nil, err
	}
	arr, err := serve.Generate(serve.TraceConfig{
		Batches: explainBatches, BatchSize: 2, RatePerSec: explainRateFrac * capacity,
		MinSeq: 16, MaxSeq: 128, Phase: model.Context, Seed: e.seed,
	})
	if err != nil {
		return nil, err
	}
	bare, err := e.newEngine(core.Options{Node: node, Model: spec, Runtime: core.KindLiger})
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	recorded, err := e.newEngine(core.Options{Node: node, Model: spec, Runtime: core.KindLiger, Tracer: rec})
	if err != nil {
		return nil, err
	}
	contEng, err := e.newEngine(core.Options{Node: node, Model: spec, Runtime: core.KindLiger})
	if err != nil {
		return nil, err
	}
	var kv *kvcache.PagedManager
	err = e.tr.do("kvcache", "NewPaged", func() (err error) {
		kv, err = kvcache.NewPaged(node, spec, explainPool, explainPrompt+explainGen, kvcache.PagedConfig{})
		return err
	})
	if err != nil {
		return nil, err
	}
	srec := trace.NewServingRecorder()
	kv.SetTracer(srec, contEng.Clock().Now)
	prefillCap, err := intraCapacity(node, spec, model.Workload{Batch: 1, SeqLen: explainPrompt, Phase: model.Context})
	if err != nil {
		return nil, err
	}
	ccfg := generate.ContinuousConfig{
		Sequences: explainSequences, RatePerSec: 0.9 * prefillCap,
		PromptLen: explainPrompt, GenTokens: explainGen, MaxPool: explainPool,
		Seed: e.seed, Tracer: srec,
	}
	return func() result {
		r := newResult()
		// timed runs fn in a span and adds its host seconds to metric.
		timed := func(layer, name, metric string, fn func() error) error {
			t0 := time.Now()
			err := e.tr.do(layer, name, fn)
			r.c[metric] += time.Since(t0).Seconds()
			return err
		}

		r.next()
		var bareRes serve.Result
		err := timed("serve", "Run", "trace.untraced_s", func() (err error) {
			bareRes, err = e.serveBatches(enginePoint{spec: spec, eng: bare, arrivals: arr})
			return err
		})
		if err != nil {
			r.errs["saturated/bare"] = err
		} else {
			r.rec.add("saturated/bare", batchStats(bareRes, len(arr)))
			engineCounters(r.c, bare)
		}

		r.next()
		var res serve.Result
		t0 := time.Now()
		err = timed("serve", "Run", "trace.record_s", func() (err error) {
			res, err = e.serveBatches(enginePoint{spec: spec, eng: recorded, arrivals: arr})
			return err
		})
		if b := r.c["trace.untraced_s"]; b > 0 {
			r.c["trace.overhead_x"] = time.Since(t0).Seconds() / b
		}
		if err != nil {
			r.errs["saturated/recorded"] = err
		} else {
			var rep *analyze.Report
			var snap *metrics.Snapshot
			var chrome, analysisJSON, metricsJSON byteCounter
			_ = timed("analyze", "Analyze", "analyze.analyze_s", func() error {
				rep = analyze.Analyze(rec, analyze.Options{})
				return rep.WriteJSON(&analysisJSON)
			})
			_ = timed("metrics", "FromRun", "metrics.snapshot_s", func() error {
				snap = metrics.FromRun(res, rec)
				return snap.WriteJSON(&metricsJSON)
			})
			err = timed("trace", "WriteChromeTrace", "trace.chrome_export_s", func() error {
				return rec.WriteChromeTrace(&chrome)
			})
			if err != nil {
				r.errs["saturated/recorded"] = err
			}
			st := batchStats(res, len(arr))
			st["trace_spans"] = float64(len(rec.Spans()))
			st["chrome_bytes"] = float64(chrome)
			st["analysis_bytes"] = float64(analysisJSON)
			st["metrics_bytes"] = float64(metricsJSON)
			st["critical_path_ns"] = float64(rep.Makespan)
			r.rec.add("saturated/recorded", st)
			engineCounters(r.c, recorded)
			r.c["trace.spans"] += float64(len(rec.Spans()))
			r.c["trace.chrome_mb"] += float64(chrome) / (1 << 20)
		}

		r.next()
		cfg := ccfg
		cfg.KV = kv
		rt := e.runtimeOf(contEng, spec)
		if e.tr != nil {
			cfg.KV = wrapKV(kv, e.tr)
		}
		var cres generate.ContinuousResult
		err = timed("generate", "RunContinuous", "trace.record_s", func() (err error) {
			cres, err = generate.RunContinuous(contEng.Clock(), rt, cfg)
			return err
		})
		if err != nil {
			r.errs["continuous/recorded"] = err
			return r
		}
		var srep *analyze.ServingReport
		var chrome, servingJSON, metricsJSON byteCounter
		_ = timed("analyze", "AnalyzeServing", "analyze.analyze_s", func() error {
			srep = analyze.AnalyzeServing(srec)
			return srep.WriteJSON(&servingJSON)
		})
		_ = timed("metrics", "FromServing", "metrics.snapshot_s", func() error {
			return metrics.FromServing(contEng.Runtime().Name(), srec, metrics.Options{}).WriteJSON(&metricsJSON)
		})
		if err := timed("trace", "WriteChromeTrace", "trace.chrome_export_s", func() error {
			return srec.WriteChromeTrace(&chrome)
		}); err != nil {
			r.errs["continuous/recorded"] = err
		}
		st := genStats(cres.Result, cfg.Sequences, cres.Makespan)
		st["preemptions"] = float64(cres.Preemptions)
		st["iterations"] = float64(cres.Iterations)
		st["iteration_records"] = float64(len(srec.Iterations()))
		st["chrome_bytes"] = float64(chrome)
		st["serving_bytes"] = float64(servingJSON)
		st["metrics_bytes"] = float64(metricsJSON)
		r.rec.add("continuous/recorded", st)
		engineCounters(r.c, contEng)
		r.c["trace.chrome_mb"] += float64(chrome) / (1 << 20)
		r.c["serve.iterations"] += float64(cres.Iterations)
		r.c["sim.ttft_p50_ms"] = st["ttft_p50_ns"] / 1e6
		r.c["sim.tpot_p50_ms"] = st["tpot_p50_ns"] / 1e6
		return r
	}, nil
}
