package serve

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/simclock"
)

func baseTrace() TraceConfig {
	return TraceConfig{
		Batches:    50,
		BatchSize:  2,
		RatePerSec: 100,
		MinSeq:     16,
		MaxSeq:     128,
		Seed:       1,
	}
}

func TestGenerateConstantRate(t *testing.T) {
	arr, err := Generate(baseTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 50 {
		t.Fatalf("got %d arrivals", len(arr))
	}
	gap := arr[1].At - arr[0].At
	if gap != 10*time.Millisecond {
		t.Fatalf("gap = %v, want 10ms at 100/s", gap)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].At-arr[i-1].At != gap {
			t.Fatal("constant-rate gaps not constant")
		}
	}
}

func TestGenerateSeqRange(t *testing.T) {
	arr, err := Generate(baseTrace())
	if err != nil {
		t.Fatal(err)
	}
	seen16or128 := 0
	for _, a := range arr {
		if a.Workload.SeqLen < 16 || a.Workload.SeqLen > 128 {
			t.Fatalf("seq %d out of range", a.Workload.SeqLen)
		}
		if a.Workload.Batch != 2 {
			t.Fatalf("batch %d", a.Workload.Batch)
		}
		if a.Workload.SeqLen <= 32 || a.Workload.SeqLen >= 112 {
			seen16or128++
		}
	}
	if seen16or128 == 0 {
		t.Fatal("sequence lengths implausibly concentrated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a1, _ := Generate(baseTrace())
	a2, _ := Generate(baseTrace())
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	other := baseTrace()
	other.Seed = 2
	a3, _ := Generate(other)
	same := true
	for i := range a1 {
		if a1[i].Workload.SeqLen != a3[i].Workload.SeqLen {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequence draws")
	}
}

func TestGenerateDecode(t *testing.T) {
	tc := baseTrace()
	tc.Phase = model.Decode
	tc.CtxLen = 16
	arr, err := Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arr {
		if a.Workload.Phase != model.Decode || a.Workload.CtxLen != 16 {
			t.Fatalf("bad decode workload %+v", a.Workload)
		}
	}
}

func TestGeneratePoissonMeanRate(t *testing.T) {
	tc := baseTrace()
	tc.Process = Poisson
	tc.Batches = 2000
	arr, err := Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	span := arr[len(arr)-1].At - arr[0].At
	mean := float64(span) / float64(len(arr)-1)
	want := float64(10 * time.Millisecond)
	if mean < 0.85*want || mean > 1.15*want {
		t.Fatalf("poisson mean gap %v, want ≈10ms", time.Duration(mean))
	}
}

func TestGenerateBursty(t *testing.T) {
	tc := baseTrace()
	tc.Process = Bursty
	arr, err := Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	// Bursts of 4 share an arrival instant.
	if arr[0].At != arr[3].At {
		t.Fatal("burst members not simultaneous")
	}
	if arr[3].At == arr[4].At {
		t.Fatal("burst gap missing")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []TraceConfig{
		{},
		{Batches: 10, BatchSize: 0, RatePerSec: 1, MinSeq: 1, MaxSeq: 2},
		{Batches: 10, BatchSize: 1, RatePerSec: 0, MinSeq: 1, MaxSeq: 2},
		{Batches: 10, BatchSize: 1, RatePerSec: math.NaN(), MinSeq: 1, MaxSeq: 2},
		{Batches: 10, BatchSize: 1, RatePerSec: math.Inf(1), MinSeq: 1, MaxSeq: 2},
		{Batches: 10, BatchSize: 1, RatePerSec: 1, MinSeq: 5, MaxSeq: 2},
		{Batches: 10, BatchSize: 1, RatePerSec: 1, Phase: model.Decode},
	}
	for i, tc := range bad {
		if _, err := Generate(tc); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// fakeRuntime completes every batch after a fixed service time,
// sequentially (a single-server queue).
type fakeRuntime struct {
	eng     *simclock.Engine
	service time.Duration
	busy    bool
	queue   []runtimes.Completion
	onDone  func(runtimes.Completion)
	nextID  int
}

func (f *fakeRuntime) Name() string                           { return "fake" }
func (f *fakeRuntime) SetOnDone(fn func(runtimes.Completion)) { f.onDone = fn }
func (f *fakeRuntime) Submit(w model.Workload) error {
	c := runtimes.Completion{ID: f.nextID, Workload: w, Submitted: f.eng.Now()}
	f.nextID++
	f.queue = append(f.queue, c)
	f.pump()
	return nil
}
func (f *fakeRuntime) pump() {
	if f.busy || len(f.queue) == 0 {
		return
	}
	f.busy = true
	c := f.queue[0]
	f.queue = f.queue[1:]
	f.eng.After(f.service, func(now simclock.Time) {
		c.Done = now
		f.busy = false
		f.onDone(c)
		f.pump()
	})
}

func TestRunMetrics(t *testing.T) {
	eng := simclock.New()
	rt := &fakeRuntime{eng: eng, service: 10 * time.Millisecond}
	// Arrivals every 20ms: no queueing, latency = service.
	arr := make([]Arrival, 10)
	for i := range arr {
		arr[i] = Arrival{
			At:       time.Duration(i) * 20 * time.Millisecond,
			Workload: model.Workload{Batch: 3, SeqLen: 16, Phase: model.Context},
		}
	}
	res, err := Run(eng, rt, arr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 || res.Requests != 30 {
		t.Fatalf("completed %d requests %d", res.Completed, res.Requests)
	}
	if res.AvgLatency != 10*time.Millisecond {
		t.Fatalf("avg latency %v, want 10ms", res.AvgLatency)
	}
	// Makespan: last arrival at 180ms + 10ms service.
	if res.Makespan != 190*time.Millisecond {
		t.Fatalf("makespan %v", res.Makespan)
	}
	thr := res.ThroughputBatches()
	if thr < 52 || thr > 53 {
		t.Fatalf("throughput %v, want ≈52.6", thr)
	}
	if res.ThroughputRequests() != 3*thr {
		t.Fatal("request throughput != 3x batch throughput")
	}
}

func TestRunQueueingLatency(t *testing.T) {
	eng := simclock.New()
	rt := &fakeRuntime{eng: eng, service: 10 * time.Millisecond}
	// Arrivals every 5ms: queue builds, pending time counts into latency.
	arr := make([]Arrival, 20)
	for i := range arr {
		arr[i] = Arrival{At: time.Duration(i) * 5 * time.Millisecond,
			Workload: model.Workload{Batch: 1, SeqLen: 16, Phase: model.Context}}
	}
	res, err := Run(eng, rt, arr)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency <= 10*time.Millisecond {
		t.Fatalf("queueing not reflected: avg %v", res.AvgLatency)
	}
	if res.P99 < res.P50 {
		t.Fatal("p99 < p50")
	}
}

func TestRunEmptyTrace(t *testing.T) {
	eng := simclock.New()
	rt := &fakeRuntime{eng: eng, service: time.Millisecond}
	if _, err := Run(eng, rt, nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// Property: arrival times are nondecreasing for every process.
func TestPropertyArrivalsMonotone(t *testing.T) {
	f := func(seed int64, proc uint8, rate uint8) bool {
		tc := baseTrace()
		tc.Seed = seed
		tc.Process = ArrivalProcess(proc % 3)
		tc.RatePerSec = float64(rate%50) + 1
		arr, err := Generate(tc)
		if err != nil {
			return false
		}
		for i := 1; i < len(arr); i++ {
			if arr[i].At < arr[i-1].At {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
