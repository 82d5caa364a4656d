package liger

import (
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/race"
	"liger/internal/simclock"
)

// alternatingBatch builds a batch of n kernels alternating compute and
// plain (non-collective) communication kernels of duration d, starting
// with class first.
func alternatingBatch(id, n int, first gpusim.KernelClass, d time.Duration) *Batch {
	ks := make([]parallel.KernelDesc, n)
	for i := range ks {
		if (i%2 == 0) == (first == gpusim.Compute) {
			ks[i] = parallel.SyntheticKernel("comp", gpusim.Compute, d, 0.85, 0.5, false)
		} else {
			ks[i] = parallel.SyntheticKernel("p2p", gpusim.Comm, d, 0.08, 0.5, false)
		}
	}
	return NewBatch(id, model.Workload{Batch: 2, SeqLen: 16, Phase: model.Context}, ks)
}

// TestSteadyRoundAllocs guards the allocation-free round: once warm, a
// Liger round with a secondary subset allocates only its cross-round
// synchronization — the Record event ending each stream's subset on
// every device plus the pre-launch trigger, the host notification
// subscribed to the trigger, and the overrun observer subscribed to the
// lead device's secondary end. Collective kernels would add their
// rendezvous groups (gpusim.NewCollective); the batches here launch
// plain communication kernels so the count is the round's own.
func TestSteadyRoundAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	eng, node, s := testRig(t, testCfg())
	// The donor's kernels are half the primary's and of the opposite
	// class at every switch point, so each round pairs one primary
	// kernel with exactly one donor kernel.
	primary := alternatingBatch(0, 20000, gpusim.Compute, 100*time.Microsecond)
	donor := alternatingBatch(1, 20000, gpusim.Comm, 50*time.Microsecond)
	eng.After(0, func(simclock.Time) {
		s.Submit(primary)
		s.Submit(donor)
	})
	round := func() {
		r := s.stats.Rounds
		for s.stats.Rounds == r && eng.Step() {
		}
	}
	// Warm the kernel pool, the command free list, the engine's slab and
	// every bucket of its calendar ring, and the scheduler's scratch.
	for i := 0; i < 3000; i++ {
		round()
	}
	before := s.Stats()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, round)
	st := s.Stats()
	if got := st.SecondaryKernels - before.SecondaryKernels; got != runs+1 {
		t.Fatalf("%d secondary kernels in %d rounds, want one per round", got, runs+1)
	}
	want := float64(2*node.NumDevices() + 1 + 2)
	if allocs != want {
		t.Fatalf("steady round = %.0f allocs, want %.0f (%d Record events, the host notification and the overrun observer)",
			allocs, want, 2*node.NumDevices()+1)
	}
}

// TestQueuesClearVacatedSlots pins that the scheduler's waiting and
// processing lists keep no batch in their spare capacity once the batch
// has moved on: a finished batch must not stay reachable from a slot
// past the list's length.
func TestQueuesClearVacatedSlots(t *testing.T) {
	cfg := testCfg()
	cfg.MaxInflight = 2
	eng, _, s := testRig(t, cfg)
	eng.After(0, func(simclock.Time) {
		for i := 0; i < 6; i++ {
			s.Submit(syntheticBatch(i, 2, 2, 50*time.Microsecond, 30*time.Microsecond))
		}
	})
	eng.Run()
	if s.Stats().BatchesDone != 6 {
		t.Fatalf("%d of 6 batches done", s.Stats().BatchesDone)
	}
	for name, q := range map[string][]*Batch{"waiting": s.waiting, "processing": s.processing} {
		for i, b := range q[len(q):cap(q)] {
			if b != nil {
				t.Errorf("%s slot %d past the length still holds batch %d", name, len(q)+i, b.ID)
			}
		}
	}
}
