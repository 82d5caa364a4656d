package serve

import (
	"reflect"
	"testing"
	"time"

	"liger/internal/model"
	"liger/internal/simclock"
)

// reqAt is one single-request context arrival.
func reqAt(at time.Duration, seq int) Arrival {
	return Arrival{At: at, Workload: model.Workload{Batch: 1, SeqLen: seq, Phase: model.Context}}
}

func batchAt(at time.Duration, n, seq int) Arrival {
	return Arrival{At: at, Workload: model.Workload{Batch: n, SeqLen: seq, Phase: model.Context}}
}

func TestPack(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name     string
		reqs     []Arrival
		maxBatch int
		maxWait  time.Duration
		batches  []Arrival
		batchOf  []int
	}{
		{
			// Full batches close at their last arrival, not after the wait.
			name: "fills_to_max_batch",
			reqs: []Arrival{reqAt(0, 16), reqAt(0, 17), reqAt(0, 18), reqAt(0, 19),
				reqAt(0, 20), reqAt(0, 21), reqAt(0, 22), reqAt(0, 23)},
			maxBatch: 4, maxWait: time.Second,
			batches: []Arrival{batchAt(0, 4, 19), batchAt(0, 4, 23)},
			batchOf: []int{0, 0, 0, 0, 1, 1, 1, 1},
		},
		{
			name:     "flushes_partial_at_max_wait",
			reqs:     []Arrival{reqAt(0, 32), reqAt(0, 64)},
			maxBatch: 8, maxWait: 5 * ms,
			batches: []Arrival{batchAt(5*ms, 2, 64)},
			batchOf: []int{0, 0},
		},
		{
			name:     "pads_to_longest_sequence",
			reqs:     []Arrival{reqAt(0, 16), reqAt(0, 128), reqAt(0, 64)},
			maxBatch: 3, maxWait: ms,
			batches: []Arrival{batchAt(0, 3, 128)},
			batchOf: []int{0, 0, 0},
		},
		{
			// A late, lone request gets its own wait from its own arrival.
			name:     "rearms_wait_after_flush",
			reqs:     []Arrival{reqAt(0, 16), reqAt(20*ms, 16)},
			maxBatch: 2, maxWait: 5 * ms,
			batches: []Arrival{batchAt(5*ms, 1, 16), batchAt(25*ms, 1, 16)},
			batchOf: []int{0, 1},
		},
		{
			// After a full flush the next batch's wait starts at its own
			// first arrival.
			name:     "rearms_wait_after_full_flush",
			reqs:     []Arrival{reqAt(0, 16), reqAt(ms, 16), reqAt(3*ms, 16)},
			maxBatch: 2, maxWait: 5 * ms,
			batches: []Arrival{batchAt(ms, 2, 16), batchAt(8*ms, 1, 16)},
			batchOf: []int{0, 0, 1},
		},
		{
			// The straggler batch closes at its wait: no request is lost.
			name: "partial_final_batch",
			reqs: []Arrival{reqAt(0, 16), reqAt(ms, 16), reqAt(2*ms, 16), reqAt(3*ms, 16),
				reqAt(4*ms, 16), reqAt(5*ms, 16), reqAt(6*ms, 16)},
			maxBatch: 4, maxWait: 50 * ms,
			batches: []Arrival{batchAt(3*ms, 4, 16), batchAt(54*ms, 3, 16)},
			batchOf: []int{0, 0, 0, 0, 1, 1, 1},
		},
		{
			name:     "arrival_at_deadline_joins",
			reqs:     []Arrival{reqAt(0, 16), reqAt(5*ms, 32), reqAt(5*ms+1, 16)},
			maxBatch: 4, maxWait: 5 * ms,
			batches: []Arrival{batchAt(5*ms, 2, 32), batchAt(10*ms+1, 1, 16)},
			batchOf: []int{0, 0, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batches, batchOf, err := Pack(tc.reqs, tc.maxBatch, tc.maxWait)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batches, tc.batches) {
				t.Errorf("batches %v, want %v", batches, tc.batches)
			}
			if !reflect.DeepEqual(batchOf, tc.batchOf) {
				t.Errorf("batchOf %v, want %v", batchOf, tc.batchOf)
			}
		})
	}
}

// Pack rejects batching parameters that cannot close a batch.
func TestBatcherValidation(t *testing.T) {
	one := []Arrival{reqAt(0, 16)}
	if _, _, err := Pack(one, 0, time.Millisecond); err == nil {
		t.Error("maxBatch 0 accepted")
	}
	if _, _, err := Pack(one, 4, 0); err == nil {
		t.Error("maxWait 0 accepted")
	}
}

// An empty request trace is rejected before anything is served.
func TestRunRequestsEmpty(t *testing.T) {
	if _, _, err := Pack(nil, 4, time.Millisecond); err == nil {
		t.Fatal("empty request trace accepted")
	}
}

func TestPackRejects(t *testing.T) {
	decode := []Arrival{{Workload: model.Workload{Batch: 1, CtxLen: 16, Phase: model.Decode}}}
	cases := []struct {
		name     string
		reqs     []Arrival
		maxBatch int
		maxWait  time.Duration
	}{
		{"decode_request", decode, 4, time.Millisecond},
		{"out_of_order", []Arrival{reqAt(time.Millisecond, 16), reqAt(0, 16)}, 4, time.Millisecond},
	}
	for _, tc := range cases {
		if _, _, err := Pack(tc.reqs, tc.maxBatch, tc.maxWait); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// Twenty requests arriving 1ms apart with a wait well above three gaps
// pack into five full batches; served through Run, every request's
// latency covers its batching delay plus the service time.
func TestPackEndToEnd(t *testing.T) {
	reqs, err := Generate(TraceConfig{Batches: 20, BatchSize: 1, RatePerSec: 1000, MinSeq: 16, MaxSeq: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batches, batchOf, err := Pack(reqs, 4, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 5 {
		t.Fatalf("%d batches, want 5 (20 requests / maxBatch 4)", len(batches))
	}
	eng := simclock.New()
	res, err := Run(eng, &fakeRuntime{eng: eng, service: 5 * time.Millisecond}, batches)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5 || res.Requests != 20 {
		t.Fatalf("completed %d batches / %d requests, want 5 / 20", res.Completed, res.Requests)
	}
	for i, r := range reqs {
		b := batchOf[i]
		wait := batches[b].At - r.At
		if lat := res.PerRequest[b].Done - r.At; lat < wait+5*time.Millisecond {
			t.Fatalf("request %d latency %v below batching delay %v + service", i, lat, wait)
		}
	}
}
