package cluster

import (
	"fmt"
	"math"

	"liger/internal/core"
	"liger/internal/generate"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// Disaggregated serving: prefill and decode run on separate node
// pools. A request's prompt is prefilled on a prefill node, then its
// KV cache crosses the inter-node network — paying a full
// hw.NetworkSpec.Transfer of the prompt's cache bytes — to a decode
// node, which runs iteration-level decoding over a paged allocator
// (serve.ContinuousBatcher + kvcache.PagedManager). The split isolates
// the two phases' interference: prefill's long context batches never
// stall decode iterations, at the price of the transfer latency on
// every handoff.
//
// Execution runs on the fleet's node plumbing (substrate): shard 0 is
// the frontend (arrival process, routing, latency bookkeeping), shards
// 1..P the prefill nodes, shards P+1..P+D the decode nodes. Every
// cross-shard interaction is a Sharded.Post at +latency or more, so the
// simulation is parallel across nodes and byte-identical at any worker
// count. Placement stays least-loaded per pool rather than the fleet
// router's power-of-two sampling.

// DisaggConfig configures a disaggregated prefill/decode run.
type DisaggConfig struct {
	// Node is the per-node hardware (all nodes identical); Network the
	// inter-node fabric the KV transfers cross.
	Node    hw.Node
	Network hw.NetworkSpec
	// PrefillNodes and DecodeNodes size the two pools.
	PrefillNodes int
	DecodeNodes  int
	// Model is the transformer served everywhere.
	Model model.Spec
	// Runtime selects the per-node execution engine.
	Runtime  core.RuntimeKind
	Liger    liger.Config
	LigerSet bool
	// Sequences, RatePerSec, PromptLen, GenTokens shape the workload
	// (Poisson arrivals, identical sequences — the generate idiom).
	Sequences  int
	RatePerSec float64
	PromptLen  int
	GenTokens  int
	// MaxPool caps each decode node's live pool.
	MaxPool int
	// KV shapes each decode node's paged allocator.
	KV kvcache.PagedConfig
	// Seed jitters arrivals.
	Seed int64
	// Workers sets the sharded executor's worker count; results are
	// byte-identical at any value.
	Workers int
	// IgnoreMemory skips placement checks and KV admission control.
	IgnoreMemory bool
	// Trace arms serving-layer telemetry: one trace.ServingRecorder per
	// shard (decode batcher iterations, sequence lifecycles, paged-KV
	// transitions, frontend KV-handoff spans), merged deterministically
	// after Run and exposed via ServingTrace. Recording never perturbs
	// the simulation.
	Trace bool
}

// Validate reports bad configurations.
func (c DisaggConfig) Validate() error {
	switch {
	case c.PrefillNodes < 1 || c.DecodeNodes < 1:
		return fmt.Errorf("cluster: disagg needs both pools, got %d prefill / %d decode", c.PrefillNodes, c.DecodeNodes)
	case c.Sequences <= 0:
		return fmt.Errorf("cluster: disagg needs sequences")
	case c.RatePerSec <= 0 || math.IsNaN(c.RatePerSec) || math.IsInf(c.RatePerSec, 1):
		return fmt.Errorf("cluster: disagg arrival rate %v", c.RatePerSec)
	case c.PromptLen <= 0 || c.GenTokens <= 0:
		return fmt.Errorf("cluster: disagg bad lengths %d/%d", c.PromptLen, c.GenTokens)
	case c.MaxPool <= 0:
		return fmt.Errorf("cluster: disagg pool size %d", c.MaxPool)
	}
	if err := c.topology().Validate(); err != nil {
		return err
	}
	return c.Model.Validate()
}

// topology is the disaggregated cluster: both pools, no spares.
func (c DisaggConfig) topology() hw.Cluster {
	return hw.Cluster{Name: "disagg", Node: c.Node, Nodes: c.PrefillNodes + c.DecodeNodes, Network: c.Network}
}

// DisaggResult aggregates a disaggregated run. TTFT spans arrival to
// the prefill-completion notice reaching the frontend; TPOT is decode
// time per token from that notice (it absorbs the KV transfer — the
// disaggregation tax). The decode counters (Iterations, MeanPool,
// PrefillBatches, Preemptions, RecomputedTokens) aggregate across the
// decode pool.
type DisaggResult struct {
	generate.ContinuousResult
	// KVTransfers counts prefill→decode handoffs; KVTransferBytes the
	// total cache bytes that crossed the network.
	KVTransfers     int
	KVTransferBytes int64
	// KVPeakBlocks is the highest per-node paged-allocator block
	// high-water mark across the decode pool (0 with IgnoreMemory).
	KVPeakBlocks int
}

// decodeNode is one decode-pool node: physical node PrefillNodes+pool.
type decodeNode struct {
	*node
	pool int
	kv   *kvcache.PagedManager
	cb   *serve.ContinuousBatcher
	// rec is the node's shard-local serving recorder (nil untraced).
	rec *trace.ServingRecorder
}

// Disagg is a runnable disaggregated simulation; single-shot. Prefill
// node i is physical node i.
type Disagg struct {
	*substrate
	cfg     DisaggConfig
	decodes []*decodeNode

	// frontRec is the frontend shard's serving recorder (nil untraced):
	// system arrival / first-token / finish lifecycle instants plus the
	// KV-handoff spans the frontend prices.
	frontRec *trace.ServingRecorder

	// Frontend-owned routing and bookkeeping.
	prefillLoad []int
	decodeLoad  []int
	ledger      *generate.Ledger
	transfers   int
	kvBytes     int64
}

// NewDisagg validates the configuration and builds the two pools over
// the fleet's node plumbing.
func NewDisagg(cfg DisaggConfig) (*Disagg, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sub, err := newSubstrate(cfg.topology(), core.Options{
		Node:         cfg.Node,
		Model:        cfg.Model,
		Runtime:      cfg.Runtime,
		Liger:        cfg.Liger,
		LigerSet:     cfg.LigerSet,
		IgnoreMemory: cfg.IgnoreMemory,
	}, cfg.Workers, nil)
	if err != nil {
		return nil, err
	}
	d := &Disagg{
		substrate:   sub,
		cfg:         cfg,
		prefillLoad: make([]int, cfg.PrefillNodes),
		decodeLoad:  make([]int, cfg.DecodeNodes),
		ledger:      generate.NewLedger(cfg.Sequences),
	}
	if cfg.Trace {
		d.frontRec = trace.NewServingRecorder()
		d.frontRec.SetPool(-1)
	}
	for _, p := range sub.nodes[:cfg.PrefillNodes] {
		p.onDone(func(rec dispatchRec, c runtimes.Completion) {
			d.sh.Post(p.idx+1, 0, c.Done+d.latency, func(now simclock.Time) {
				d.prefillDone(rec.rep, rec.req, now)
			})
		})
	}
	fail := func(pool int, err error) (*Disagg, error) {
		sub.sh.Close()
		return nil, fmt.Errorf("cluster: decode node %d: %w", pool, err)
	}
	for i, nd := range sub.nodes[cfg.PrefillNodes:] {
		n := &decodeNode{node: nd, pool: i}
		if !cfg.IgnoreMemory {
			kv, err := kvcache.NewPaged(cfg.Node, cfg.Model, cfg.MaxPool, cfg.PromptLen+cfg.GenTokens, cfg.KV)
			if err != nil {
				return fail(i, err)
			}
			n.kv = kv
		}
		var alloc serve.KVAllocator
		if n.kv != nil {
			alloc = n.kv
		}
		cb, err := serve.NewContinuousBatcher(n.rt, alloc, cfg.MaxPool, serve.ContinuousHooks{
			Finished: func(id int, now simclock.Time) {
				d.sh.Post(n.idx+1, 0, now+d.latency, func(now simclock.Time) {
					d.seqFinished(n.pool, id, now)
				})
			},
		})
		if err != nil {
			return fail(i, err)
		}
		n.rt.SetOnDone(cb.OnDone)
		n.cb = cb
		if cfg.Trace {
			n.rec = trace.NewServingRecorder()
			n.rec.SetPool(i)
			cb.SetTracer(n.rec, i)
			if n.kv != nil {
				n.kv.SetTracer(n.rec, n.eng.Now)
			}
		}
		d.decodes = append(d.decodes, n)
	}
	d.armArrivals()
	return d, nil
}

// armArrivals schedules the Poisson arrival process on the frontend.
func (d *Disagg) armArrivals() {
	for seq, at := range generate.PoissonArrivals(d.cfg.Sequences, d.cfg.RatePerSec, d.cfg.Seed) {
		d.front.At(at, func(now simclock.Time) {
			d.ledger.Arrive(seq, now)
			if d.frontRec != nil {
				d.frontRec.SeqEvent(serve.SeqEvent{
					Pool: -1, Seq: seq, Kind: serve.SeqArrive, At: now, Tokens: d.cfg.PromptLen,
				})
			}
			d.routePrefill(seq, now)
		})
	}
}

// leastLoaded picks the pool member with the fewest sequences, lowest
// index on ties. Disagg keeps this placement rather than the fleet
// router's power-of-two sampling: it is deterministic without a random
// stream, and switching would move every pinned disaggregated number.
func leastLoaded(load []int) int {
	best := 0
	for i := 1; i < len(load); i++ {
		if load[i] < load[best] {
			best = i
		}
	}
	load[best]++
	return best
}

// routePrefill sends one sequence to the least-loaded prefill node.
func (d *Disagg) routePrefill(seq int, now simclock.Time) {
	best := leastLoaded(d.prefillLoad)
	p := d.nodes[best]
	w := model.Workload{Batch: 1, SeqLen: d.cfg.PromptLen, Phase: model.Context}
	d.sh.Post(0, p.idx+1, now+d.latency, func(simclock.Time) {
		_ = p.submit(w, dispatchRec{req: seq, rep: best}) // Run surfaces the error
	})
}

// prefillDone runs on the frontend: the prompt's first token exists;
// hand the KV cache to the least-loaded decode node, paying the full
// cache transfer over the inter-node network.
func (d *Disagg) prefillDone(pIdx, seq int, now simclock.Time) {
	d.prefillLoad[pIdx]--
	d.ledger.FirstToken(seq, now)
	best := leastLoaded(d.decodeLoad)
	n := d.decodes[best]
	bytes := d.cfg.Model.KVCacheBytes(d.cfg.PromptLen)
	d.transfers++
	d.kvBytes += bytes
	// Transfer includes one network latency, so the post clears the
	// lookahead window by construction.
	at := now + simclock.Time(d.cfg.Network.Transfer(bytes))
	if d.frontRec != nil {
		// The prefill-completion notice is the sequence's first-token
		// instant (the TTFT stamp); the handoff span prices the cache
		// transfer from the prefill node to the chosen decode pool.
		d.frontRec.SeqEvent(serve.SeqEvent{
			Pool: -1, Seq: seq, Kind: serve.SeqPrefillEnd, At: now, Tokens: d.cfg.PromptLen,
		})
		d.frontRec.KVHandoff(trace.KVHandoff{
			Seq: seq, Req: seq, From: pIdx, To: best, Bytes: bytes, Start: now, End: at,
		})
	}
	d.sh.Post(0, n.idx+1, at, func(now simclock.Time) {
		n.cb.Add(serve.GenSeq{
			ID:        seq,
			Prompt:    d.cfg.PromptLen,
			Gen:       d.cfg.GenTokens,
			Prefilled: true,
		}, now)
	})
}

// seqFinished runs on the frontend when a decode node completes a
// sequence.
func (d *Disagg) seqFinished(pool, seq int, now simclock.Time) {
	d.decodeLoad[pool]--
	d.ledger.Finish(seq, now)
	if d.frontRec != nil {
		d.frontRec.SeqEvent(serve.SeqEvent{
			Pool: -1, Seq: seq, Kind: serve.SeqFinish, At: now, Tokens: d.cfg.GenTokens,
		})
	}
}

// Run executes the simulation to completion and aggregates the result.
// It also checks KV conservation on every decode node: the paged
// allocator must report no accounting violation and hold no block once
// every sequence has finished.
func (d *Disagg) Run() (DisaggResult, error) {
	if err := d.run(); err != nil {
		return DisaggResult{}, err
	}
	for _, n := range d.decodes {
		if err := n.cb.Err(); err != nil {
			return DisaggResult{}, fmt.Errorf("cluster: decode node %d: %w", n.pool, err)
		}
	}
	cres, err := d.ledger.Result(d.cfg.GenTokens)
	if err != nil {
		return DisaggResult{}, err
	}
	res := DisaggResult{ContinuousResult: cres, KVTransfers: d.transfers, KVTransferBytes: d.kvBytes}
	var poolSum float64
	for _, n := range d.decodes {
		res.Iterations += n.cb.Iterations
		poolSum += float64(n.cb.PoolSum)
		res.PrefillBatches += n.cb.PrefillBatches
		res.Preemptions += n.cb.Preemptions
		res.RecomputedTokens += n.cb.RecomputedTokens
		if n.kv == nil {
			continue
		}
		if err := n.kv.InvariantErr(); err != nil {
			return res, fmt.Errorf("cluster: decode node %d: %w", n.pool, err)
		}
		if free, total := n.kv.FreeBlocks(), n.kv.TotalBlocks(); free != total {
			return res, fmt.Errorf("cluster: decode node %d holds %d of %d KV blocks after every sequence finished",
				n.pool, total-free, total)
		}
		res.KVPeakBlocks = max(res.KVPeakBlocks, n.kv.PeakUsedBlocks())
	}
	if res.Iterations > 0 {
		res.MeanPool = poolSum / float64(res.Iterations)
	}
	return res, nil
}

// Stats exposes the windowed-execution counters for diagnostics.
func (d *Disagg) Stats() simclock.ShardStats { return d.sh.Stats() }

// ServingTrace merges the per-shard recorders into one normalized
// serving trace (nil unless DisaggConfig.Trace). Call after Run: the
// merge order is fixed (frontend, then decode pools by index) and
// every stream is stably time-sorted, so the result is byte-
// deterministic at any Workers value.
func (d *Disagg) ServingTrace() *trace.ServingRecorder {
	if d.frontRec == nil {
		return nil
	}
	merged := trace.NewServingRecorder()
	merged.Merge(d.frontRec)
	for _, n := range d.decodes {
		if n.rec != nil {
			merged.Merge(n.rec)
		}
	}
	merged.Normalize()
	return merged
}
