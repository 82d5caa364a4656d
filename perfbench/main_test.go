package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
)

func record1(t *testing.T, w workload, seed int64, tr *tracer) record {
	t.Helper()
	r := runRep(w, &env{seed: seed, tr: tr})
	if len(r.errs) > 0 {
		t.Fatalf("%s seed %d: %v", w.name, seed, r.errs)
	}
	for _, p := range r.rec.Points {
		if err := p.conserved(); err != nil {
			t.Fatalf("%s seed %d: %v", w.name, seed, err)
		}
	}
	return r.rec
}

// TestDeterministicAndTransparent runs every workload twice untraced and
// once traced at the expected seed, and once at another seed: the first
// three records must be identical and equal expected.json, the fourth
// must differ (its arrivals do).
func TestDeterministicAndTransparent(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := record1(t, w, expectedSeed, nil)
			b := record1(t, w, expectedSeed, nil)
			if bad := mismatches(a, b); len(bad) > 0 {
				t.Errorf("same seed, different records at %v", bad)
			}
			tr := newTracer()
			traced := record1(t, w, expectedSeed, tr)
			if bad := mismatches(traced, a); len(bad) > 0 {
				t.Errorf("traced record differs from untraced at %v", bad)
			}
			if len(tr.spans) == 0 {
				t.Errorf("traced run recorded no spans")
			}
			want, ok := exp[w.name]
			if !ok {
				t.Fatalf("expected.json has no record for %s", w.name)
			}
			if bad := mismatches(a, want.record); len(bad) > 0 || a.digest() != want.Digest {
				t.Errorf("record differs from expected.json at %v (digest %s, want %s)", bad, a.digest(), want.Digest)
			}
			if other := record1(t, w, expectedSeed+1, nil); other.digest() == a.digest() {
				t.Errorf("seeds %d and %d simulated the same record", expectedSeed, expectedSeed+1)
			}
		})
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("bad or repeated metric name %q", d.name)
		}
		seen[d.name] = true
	}
}

// TestEveryMetricReported runs the command itself on every workload,
// untraced and traced, and checks the result line.
func TestEveryMetricReported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "1", "--seconds", "0", "--trace", mode.trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, mode.trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, mode.trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed:\n%s", w.name, mode.trace, out.Correct, out.Failed, out.Attempted, stdout.String())
			}
			if len(out.Metrics) != len(mode.defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, mode.trace, len(out.Metrics), len(mode.defs))
			}
			cpu := 0.0
			for _, d := range mode.defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace %s: metric %s = %+v", w.name, mode.trace, d.name, m)
				}
				if strings.HasSuffix(d.name, "cpu_pct") {
					cpu += m.Value
				}
			}
			if mode.trace == "1" && math.Abs(cpu-100) > 1e-6 {
				t.Errorf("%s: cpu_pct shares sum to %v", w.name, cpu)
			}
			if mode.trace == "0" {
				for _, d := range endToEnd {
					if out.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, d.name, out.Metrics[d.name].Value)
					}
				}
			}
			if w.name == "decode-kvpressure" && mode.trace == "1" && out.Metrics["serve.preemptions"].Value <= 0 {
				t.Errorf("decode-kvpressure made no preemptions")
			}
			if w.name == "fig10-context" && mode.trace == "1" && out.Metrics["gpusim.alloc_b_per_kernel"].Value <= 0 {
				t.Errorf("fig10-context charged no heap allocation to gpusim")
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "0"},
		{"--workload", "fig10-context", "--trace", "2"},
		{"--bogus"},
		{"--workload", "fig10-context", "--seed", "7", "--seconds", "0", "--update-expected"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// Fakes for the wrapper tests: a bare runtime, one with both optional
// interfaces, a bare allocator and one with both optional interfaces.
type bareRuntime struct{}

func (bareRuntime) Name() string                        { return "bare" }
func (bareRuntime) Submit(model.Workload) error         { return nil }
func (bareRuntime) SetOnDone(func(runtimes.Completion)) {}

type fullRuntime struct{ bareRuntime }

func (fullRuntime) SubmitReq(model.Workload, int) error { return nil }
func (fullRuntime) Reconfiguring() bool                 { return false }
func (fullRuntime) OnReconfigured(func(simclock.Time))  {}
func (fullRuntime) FailoverStats() (int, time.Duration) { return 0, 0 }

type bareKV struct{}

func (bareKV) CanAdmit(int) bool    { return true }
func (bareKV) Admit(int, int) error { return nil }
func (bareKV) Extend(int) error     { return nil }
func (bareKV) Release(int)          {}

type fullKV struct{ bareKV }

func (fullKV) UnderPressure() bool       { return false }
func (fullKV) Preempt() (int, int, bool) { return 0, 0, false }
func (fullKV) TotalBlocks() int          { return 1 }
func (fullKV) FreeBlocks() int           { return 1 }

// TestWrappersForwardOptionalInterfaces checks that a wrapper has an
// optional interface exactly when the wrapped value has it.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, rt := range []runtimes.Runtime{bareRuntime{}, fullRuntime{}} {
		w := wrapRuntime(rt, tr, submission{})
		_, wantT := rt.(runtimes.Tagged)
		_, wantE := rt.(runtimes.Elastic)
		_, gotT := w.(runtimes.Tagged)
		_, gotE := w.(runtimes.Elastic)
		if gotT != wantT || gotE != wantE {
			t.Errorf("%T: wrapper Tagged %v Elastic %v, want %v %v", rt, gotT, gotE, wantT, wantE)
		}
	}
	for _, kv := range []serve.KVAllocator{bareKV{}, fullKV{}} {
		w := wrapKV(kv, tr)
		_, wantP := kv.(serve.PreemptingAllocator)
		_, wantB := kv.(serve.BlockStats)
		_, gotP := w.(serve.PreemptingAllocator)
		_, gotB := w.(serve.BlockStats)
		if gotP != wantP || gotB != wantB {
			t.Errorf("%T: wrapper Preempting %v BlockStats %v, want %v %v", kv, gotP, gotB, wantP, wantB)
		}
	}
}
