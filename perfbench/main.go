// Command perfbench is the simulator's benchmark. It runs one named
// workload — a fixed simulated experiment built from --seed — over and
// over for --seconds of host time, checks every repetition's simulated
// outputs, and prints the host cost of the experiment as one JSON line.
// With --trace 1 it instead runs the workload traced (CPU profile,
// spans around every call into a layer, compile replay) and prints the
// per-layer metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minReps is the fewest timed repetitions a run makes, however short
// --seconds is, so every median has at least three samples.
const minReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", expectedSeed, "seed the workload's inputs are built from")
	seconds := fs.Int("seconds", 25, "host seconds to measure for")
	traced := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	update := fs.Bool("update-expected", false, "store this seed's simulated record in perfbench/expected.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if *update && *seed != expectedSeed {
		fmt.Fprintf(stderr, "perfbench: --update-expected stores seed %d only, not seed %d\n", expectedSeed, *seed)
		return 2
	}
	chk, err := newChecker(w.name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *update {
		chk.want = nil
	}
	fmt.Fprintf(stdout, "# host: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	budget := time.Duration(*seconds) * time.Second
	var out output
	if *traced == 1 {
		out, err = measureTraced(w, *seed, budget, chk, stdout)
	} else {
		out = measureUntraced(w, *seed, budget, chk, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# simulated record digest %s (seed %d)%s\n", chk.ref.digest(), *seed, chk.verdict())
	for _, n := range chk.notes {
		fmt.Fprintln(stdout, "# FAILED", n)
	}
	if *update {
		if !out.Correct {
			fmt.Fprintln(stderr, "perfbench: not updating expected.json from a failing run")
			return 1
		}
		if err := writeExpected(w.name, *chk.ref); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// rep is one repetition of a workload: its result plus host costs.
type rep struct {
	result
	setup time.Duration
	// alloc, mallocs and gcs are heap bytes allocated, allocations and
	// GC cycles during the simulation phase.
	alloc, mallocs, gcs uint64
}

// runRep sets the workload up and runs it once. The caller collects
// garbage first, so every repetition starts from the same heap.
func runRep(w workload, e *env) rep {
	t0 := time.Now()
	run, err := w.setup(e)
	setup := time.Since(t0)
	if err != nil {
		r := newResult()
		r.points = 1
		r.errs["setup"] = err
		return rep{result: r, setup: setup}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := run()
	res.lap()
	runtime.ReadMemStats(&m1)
	return rep{result: res, setup: setup,
		alloc: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs, gcs: uint64(m1.NumGC - m0.NumGC)}
}

// checker verifies every repetition's simulated outputs: no point
// errors, conservation holds, every repetition equals the first, and
// at the expected seed the first equals expected.json.
type checker struct {
	want      *expectedRecord
	ref       *record
	attempted int
	failed    int
	notes     []string
}

func newChecker(workload string, seed int64) (*checker, error) {
	c := &checker{}
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	if want, ok := exp[workload]; ok && want.Seed == seed {
		c.want = &want
	}
	return c, nil
}

func (c *checker) check(r rep, label string) {
	c.attempted += r.points
	bad := make(map[string]string)
	for name, err := range r.errs {
		bad[name] = err.Error()
	}
	for _, p := range r.rec.Points {
		if err := p.conserved(); err != nil {
			bad[p.Name] = err.Error()
		}
	}
	if c.ref == nil {
		rec := r.rec
		c.ref = &rec
		if c.want != nil {
			for _, n := range mismatches(r.rec, c.want.record) {
				if _, ok := bad[n]; !ok {
					bad[n] = "simulated statistics differ from expected.json"
				}
			}
		}
	} else {
		for _, n := range mismatches(r.rec, *c.ref) {
			if _, ok := bad[n]; !ok {
				bad[n] = "simulated statistics differ from the first repetition"
			}
		}
	}
	names := make([]string, 0, len(bad))
	for n := range bad {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c.notes = append(c.notes, fmt.Sprintf("%s %s: %s", label, n, bad[n]))
	}
	c.failed += len(bad)
}

func (c *checker) verdict() string {
	if c.want == nil {
		return ", no expected record for this seed"
	}
	if c.ref.digest() == c.want.Digest {
		return ", matches expected.json"
	}
	return ", DIFFERS from expected.json " + c.want.Digest
}

func (c *checker) failedPct() float64 {
	if c.attempted == 0 {
		return 0
	}
	return 100 * float64(c.failed) / float64(c.attempted)
}

// repeat runs untraced repetitions until deadline, at least n of them.
func repeat(w workload, seed int64, deadline time.Time, n int, chk *checker, label string) []rep {
	var reps []rep
	for len(reps) < n || time.Now().Before(deadline) {
		runtime.GC()
		r := runRep(w, &env{seed: seed})
		chk.check(r, label)
		reps = append(reps, r)
	}
	return reps
}

// measureUntraced is the end-to-end run: one warm-up repetition, then
// timed repetitions for the budget, reporting medians.
func measureUntraced(w workload, seed int64, budget time.Duration, chk *checker, stdout io.Writer) output {
	deadline := time.Now().Add(budget)
	repeat(w, seed, time.Time{}, 1, chk, "warm-up")
	reps := repeat(w, seed, deadline, minReps, chk, "repetition")
	host := hostSeconds(reps)
	setup := median(reps, func(r rep) float64 { return r.setup.Seconds() })
	alloc := median(reps, func(r rep) float64 { return float64(r.alloc) / (1 << 20) })
	rss := peakRSSMB()
	fmt.Fprintf(stdout, "# %s seed %d: %d timed repetitions after 1 warm-up, %d points each\n",
		w.name, seed, len(reps), reps[0].points)
	fmt.Fprintf(stdout, "# host_s %.4f s, setup_s %.5f s, alloc_mb %.1f MiB, peak_rss_mb %.1f MiB (host; host_s sums per-point medians, setup_s and alloc_mb are medians, over repetitions)\n",
		host, setup, alloc, rss)
	fmt.Fprintf(stdout, "# points %d, points_failed_pct %.2f %%\n", chk.attempted, chk.failedPct())
	if v, ok := reps[0].c["sim.paper_err_pct"]; ok {
		fmt.Fprintf(stdout, "# paper_err_pct %.2f %% (simulated Liger/Intra-Op saturated throughput %.3fx V100, %.3fx A100; paper 1.15x, 1.52x)\n",
			v, reps[0].c["sim.thr_gain_v100"], reps[0].c["sim.thr_gain_a100"])
	}
	return output{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics: map[string]metric{
			"host_s":      {host, "s"},
			"setup_s":     {setup, "s"},
			"alloc_mb":    {alloc, "MiB"},
			"peak_rss_mb": {rss, "MiB"},
		},
	}
}

// measureTraced is the traced run. The first half of the budget runs
// untraced repetitions, the baseline for tracing overhead and the
// source of host-time and allocation counters; the second half runs
// traced repetitions under the CPU profiler, with spans around every
// call into a layer, and attributes their heap allocation to layers
// from the allocs profile. Each traced repetition's simulated record
// must equal the untraced one.
func measureTraced(w workload, seed int64, budget time.Duration, chk *checker, stdout io.Writer) (output, error) {
	start := time.Now()
	repeat(w, seed, time.Time{}, 1, chk, "warm-up")
	bare := repeat(w, seed, start.Add(budget/2), 2, chk, "untraced repetition")
	deadline := start.Add(budget)
	var tr *tracer
	var traced []rep
	cpu := buckets{}
	heapBefore, err := allocBuckets()
	if err != nil {
		return output{}, err
	}
	for len(traced) < 1 || time.Now().Before(deadline) {
		runtime.GC()
		tr = newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return output{}, err
		}
		r := runRep(w, &env{seed: seed, tr: tr})
		pprof.StopCPUProfile()
		if err := cpu.attribute(prof.Bytes(), "cpu"); err != nil {
			return output{}, err
		}
		chk.check(r, "traced repetition")
		traced = append(traced, r)
	}
	heapAfter, err := allocBuckets()
	if err != nil {
		return output{}, err
	}

	m := make(map[string]float64)
	for _, d := range perLayer {
		name := d.name
		m[name] = median(bare, func(r rep) float64 { return r.c[name] })
	}
	bareSim := hostSeconds(bare)
	if ev := m["simclock.events"]; ev > 0 {
		m["simclock.ns_per_event"] = bareSim * 1e9 / ev
	}
	if k := m["gpusim.kernels"] * float64(len(traced)); k > 0 {
		m["gpusim.alloc_b_per_kernel"] = float64(heapAfter["gpusim"]-heapBefore["gpusim"]) / k
	}
	m["go.mallocs"] = median(bare, func(r rep) float64 { return float64(r.mallocs) })
	m["go.gc_cycles"] = median(bare, func(r rep) float64 { return float64(r.gcs) })
	m["bench.trace_overhead_s"] = hostSeconds(traced) - bareSim

	rs, err := replay(tr.submit)
	if err != nil {
		return output{}, err
	}
	m["parallel.compiles"] = float64(rs.compiles)
	m["parallel.distinct_shapes"] = float64(rs.distinct)
	if rs.compiles > 0 {
		m["parallel.shape_reuse"] = 1 - float64(rs.distinct)/float64(rs.compiles)
	}
	m["parallel.compile_us_p50"] = us(rs.p50)
	m["parallel.compile_us_p99"] = us(rs.p99)
	m["parallel.compile_allocs"] = rs.allocsPerCompile

	submits := tr.durations("runtimes", "Submit")
	m["runtimes.submits"] = float64(len(submits))
	m["runtimes.submit_us_p50"] = us(pct(submits, 50))
	m["runtimes.submit_us_p99"] = us(pct(submits, 99))
	var kv []time.Duration
	for _, op := range []string{"CanAdmit", "Admit", "Extend", "Release", "UnderPressure", "Preempt"} {
		kv = append(kv, tr.durations("kvcache", op)...)
	}
	m["kvcache.calls"] = float64(len(kv))
	m["kvcache.call_ns_p50"] = float64(pct(kv, 50))
	m["kvcache.call_ns_p99"] = float64(pct(kv, 99))
	m["serve.dispatches"] = float64(tr.routes["dispatch"])

	var total int64
	for _, v := range cpu {
		total += v
	}
	for _, l := range append(append([]string{}, layers...), "other") {
		m[l+".cpu_pct"] = share(cpu[l], total)
	}
	m["go.gc_cpu_pct"] = share(cpu["go.gc"], total)
	m["bench.points"] = float64(chk.attempted)
	m["bench.points_failed_pct"] = chk.failedPct()
	m["host.nproc"] = float64(runtime.NumCPU())
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	spans := filepath.Join(".bench_build", "spans", w.name+".json")
	if err := tr.writeSpans(spans); err != nil {
		return output{}, err
	}
	fmt.Fprintf(stdout, "# %s seed %d traced: %d untraced + %d traced repetitions after 1 warm-up; %d spans of the last written to %s\n",
		w.name, seed, len(bare), len(traced), len(tr.spans), spans)
	out := output{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return output{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	return out, nil
}

// allocBuckets collects garbage, which publishes every allocation made
// so far to the allocs profile, and returns the profile's bytes
// allocated since the process started, by layer.
func allocBuckets() (buckets, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	b := buckets{}
	return b, b.attribute(buf.Bytes(), "alloc_space")
}

func share(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pct returns the p-th percentile (nearest rank) of ds, or 0.
func pct(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[min(len(s)-1, len(s)*p/100)]
}

// hostSeconds is the host time of the simulation phase: the sum over
// points of each point's median time across repetitions. Host noise
// comes in bursts shorter than a repetition, so a point's median drops
// the bursts that hit it, where a median of whole repetitions keeps
// any burst that hit the median repetition.
func hostSeconds(reps []rep) float64 {
	var total float64
	for i := 0; ; i++ {
		var ds []float64
		for _, r := range reps {
			if i < len(r.laps) {
				ds = append(ds, r.laps[i].Seconds())
			}
		}
		if len(ds) == 0 {
			return total
		}
		total += medianOf(ds)
	}
}

// median returns the median of f over reps.
func median(reps []rep, f func(rep) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	return medianOf(vs)
}

// medianOf returns the median of vs, reordering it.
func medianOf(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
