package generate

import (
	"fmt"
	"math"
	"time"

	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
)

// Continuous batching (Orca-style iteration-level scheduling, which the
// paper lists as orthogonal related work): instead of carrying a fixed
// batch through its whole generation, every decode iteration runs over
// the current pool of live sequences, admitting newly arrived sequences
// between iterations. Liger's interleaving composes with it — the
// iteration kernels are scheduled like any other batch. The scheduling
// loop itself lives in serve.ContinuousBatcher; the arrival schedule
// (PoissonArrivals) and the per-sequence ledger (Ledger) are shared
// with the disaggregated driver in internal/cluster.

// ContinuousConfig shapes a continuous-batching run.
type ContinuousConfig struct {
	// Sequences is the number of generations to serve.
	Sequences int
	// RatePerSec is the sequence arrival rate.
	RatePerSec float64
	// PromptLen and GenTokens shape each sequence.
	PromptLen int
	GenTokens int
	// MaxPool caps live sequences per iteration.
	MaxPool int
	// KV, if non-nil, gates admission on cache capacity. Only the prompt
	// is admitted up front; the cache then grows one token per decode
	// iteration (paged growth), so a kvcache.PagedManager here admits
	// far more concurrency than the old worst-case reservation — at the
	// price of mid-decode preemption when blocks run out.
	KV serve.KVAllocator
	// Seed jitters arrivals (Poisson).
	Seed int64
	// Tracer, if non-nil, observes the batcher's iterations and sequence
	// lifecycles (trace.ServingRecorder implements it along with the
	// other serving extensions). The caller wires a paged allocator's
	// own tracer separately (kvcache.PagedManager.SetTracer) since KV
	// may be any allocator. Tracing never perturbs the simulation.
	Tracer serve.ServingTracer
}

// Validate reports bad configurations.
func (c ContinuousConfig) Validate() error {
	switch {
	case c.Sequences <= 0:
		return fmt.Errorf("generate: need sequences")
	case c.RatePerSec <= 0 || math.IsNaN(c.RatePerSec) || math.IsInf(c.RatePerSec, 1):
		return fmt.Errorf("generate: arrival rate %v", c.RatePerSec)
	case c.PromptLen <= 0 || c.GenTokens <= 0:
		return fmt.Errorf("generate: bad lengths %d/%d", c.PromptLen, c.GenTokens)
	case c.MaxPool <= 0:
		return fmt.Errorf("generate: pool size %d", c.MaxPool)
	}
	return nil
}

// ContinuousResult aggregates a run.
type ContinuousResult struct {
	Result
	// Iterations counts decode steps executed.
	Iterations int
	// MeanPool is the average live-pool size over iterations.
	MeanPool float64
	// PrefillBatches counts context-phase submissions (admission waves).
	PrefillBatches int
	// Preemptions counts sequences evicted under memory pressure;
	// RecomputedTokens is the total prefill work their resumes repaid.
	Preemptions      int
	RecomputedTokens int
	// Makespan is the completion time of the last sequence.
	Makespan time.Duration
}

// RunContinuous executes the workload on the runtime attached to eng.
// It owns the runtime's completion callback for the duration.
func RunContinuous(eng *simclock.Engine, rt runtimes.Runtime, cfg ContinuousConfig) (ContinuousResult, error) {
	if err := cfg.Validate(); err != nil {
		return ContinuousResult{}, err
	}
	ledger := NewLedger(cfg.Sequences)
	cb, err := serve.NewContinuousBatcher(rt, cfg.KV, cfg.MaxPool, serve.ContinuousHooks{
		FirstToken: ledger.FirstToken,
		Finished:   ledger.Finish,
	})
	if err != nil {
		return ContinuousResult{}, err
	}
	if cfg.Tracer != nil {
		cb.SetTracer(cfg.Tracer, 0)
	}
	rt.SetOnDone(cb.OnDone)

	for id, at := range PoissonArrivals(cfg.Sequences, cfg.RatePerSec, cfg.Seed) {
		eng.At(at, func(now simclock.Time) {
			ledger.Arrive(id, now)
			cb.Add(serve.GenSeq{ID: id, Prompt: cfg.PromptLen, Gen: cfg.GenTokens}, now)
		})
	}
	eng.Run()
	if err := cb.Err(); err != nil {
		return ContinuousResult{}, err
	}
	res, err := ledger.Result(cfg.GenTokens)
	if err != nil {
		return res, err
	}
	res.Iterations = cb.Iterations
	res.MeanPool = cb.MeanPool()
	res.PrefillBatches = cb.PrefillBatches
	res.Preemptions = cb.Preemptions
	res.RecomputedTokens = cb.RecomputedTokens
	return res, nil
}
