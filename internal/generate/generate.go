// Package generate drives full generative lifecycles over any runtime:
// each conversation is a batch of requests that runs the initial
// conditioning (prefill) phase over its prompt and then samples tokens
// one at a time against a growing KV cache (§4.3). Decode iterations
// are submitted dynamically — each step when the previous completes —
// so the Liger runtime interleaves steps of different conversations.
// KV-cache admission control queues conversations that do not fit.
package generate

import (
	"fmt"
	"math/rand"
	"time"

	"liger/internal/kvcache"
	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/simclock"
	"liger/internal/stats"
)

// Config shapes the generation workload.
type Config struct {
	// Conversations is the number of batched generations to run.
	Conversations int
	// BatchSize is the number of requests batched per conversation.
	BatchSize int
	// PromptLen is the prefill length per request.
	PromptLen int
	// GenTokens is the number of decode iterations per conversation.
	GenTokens int
	// ArrivalGap spaces conversation arrivals.
	ArrivalGap time.Duration
	// KV, if non-nil, enforces cache admission: conversations queue
	// until their whole generation fits.
	KV *kvcache.Manager
}

// Validate reports bad configurations.
func (c Config) Validate() error {
	switch {
	case c.Conversations <= 0:
		return fmt.Errorf("generate: need conversations")
	case c.BatchSize <= 0:
		return fmt.Errorf("generate: batch size %d", c.BatchSize)
	case c.PromptLen <= 0:
		return fmt.Errorf("generate: prompt length %d", c.PromptLen)
	case c.GenTokens <= 0:
		return fmt.Errorf("generate: generation length %d", c.GenTokens)
	case c.ArrivalGap < 0:
		return fmt.Errorf("generate: negative arrival gap")
	}
	return nil
}

// Result aggregates per-conversation generation metrics.
type Result struct {
	Conversations int
	// TTFT is the time-to-first-token distribution (arrival → prefill
	// completion, including any KV admission queueing).
	TTFT []time.Duration
	// TPOT is the per-output-token time distribution.
	TPOT []time.Duration
	// Total is the end-to-end generation time distribution.
	Total []time.Duration
	// QueuedForKV counts conversations that had to wait for cache.
	QueuedForKV int
}

// AvgTTFT returns the mean time to first token.
func (r Result) AvgTTFT() time.Duration { return stats.Mean(r.TTFT) }

// AvgTPOT returns the mean time per output token.
func (r Result) AvgTPOT() time.Duration { return stats.Mean(r.TPOT) }

// AvgTotal returns the mean end-to-end generation time.
func (r Result) AvgTotal() time.Duration { return stats.Mean(r.Total) }

// PoissonArrivals returns the arrival instants of n sequences under a
// seeded Poisson process at ratePerSec, starting at zero: the schedule
// RunContinuous and cluster.Disagg share.
func PoissonArrivals(n int, ratePerSec float64, seed int64) []simclock.Time {
	rng := rand.New(rand.NewSource(seed))
	gap := time.Duration(float64(time.Second) / ratePerSec)
	out := make([]simclock.Time, n)
	var at simclock.Time
	for i := range out {
		out[i] = at
		at += time.Duration(rng.ExpFloat64() * float64(gap))
	}
	return out
}

// Ledger records each sequence's arrival, first-token and finish
// instants. It is the one definition of the generative metrics: TTFT is
// arrival to first token, TPOT first token to finish per generated
// token, Total arrival to finish.
type Ledger struct {
	arrived, firstTok, finished []simclock.Time
	completed                   int
}

// NewLedger returns a ledger for sequences 0..n-1.
func NewLedger(n int) *Ledger {
	return &Ledger{
		arrived:  make([]simclock.Time, n),
		firstTok: make([]simclock.Time, n),
		finished: make([]simclock.Time, n),
	}
}

// Arrive stamps sequence id's arrival.
func (l *Ledger) Arrive(id int, now simclock.Time) { l.arrived[id] = now }

// FirstToken stamps sequence id's first token.
func (l *Ledger) FirstToken(id int, now simclock.Time) { l.firstTok[id] = now }

// Finish stamps sequence id's completion.
func (l *Ledger) Finish(id int, now simclock.Time) {
	l.finished[id] = now
	l.completed++
}

// Result derives the per-sequence distributions and the makespan (the
// last completion instant) for sequences of genTokens tokens each. It
// fails unless every sequence finished.
func (l *Ledger) Result(genTokens int) (ContinuousResult, error) {
	res := ContinuousResult{}
	n := len(l.arrived)
	if l.completed != n {
		return res, fmt.Errorf("generate: %d of %d sequences finished", l.completed, n)
	}
	for i := 0; i < n; i++ {
		res.TTFT = append(res.TTFT, time.Duration(l.firstTok[i]-l.arrived[i]))
		res.TPOT = append(res.TPOT, time.Duration(l.finished[i]-l.firstTok[i])/time.Duration(genTokens))
		res.Total = append(res.Total, time.Duration(l.finished[i]-l.arrived[i]))
		res.Makespan = max(res.Makespan, time.Duration(l.finished[i]))
	}
	res.Conversations = n
	return res, nil
}

type conversation struct {
	id   int
	step int
}

// Run executes the workload on the runtime attached to eng. It owns the
// runtime's completion callback for the duration of the run.
func Run(eng *simclock.Engine, rt runtimes.Runtime, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	queued := 0
	perConv := cfg.BatchSize * (cfg.PromptLen + cfg.GenTokens)

	ledger := NewLedger(cfg.Conversations)
	outstanding := map[int]*conversation{}
	var admitQueue []*conversation
	pendingID := 0
	var runErr error

	submitStep := func(c *conversation) {
		var w model.Workload
		if c.step == 0 {
			w = model.Workload{Batch: cfg.BatchSize, SeqLen: cfg.PromptLen, Phase: model.Context}
		} else {
			w = model.Workload{Batch: cfg.BatchSize, CtxLen: cfg.PromptLen + c.step - 1, Phase: model.Decode}
		}
		outstanding[pendingID] = c
		pendingID++
		if err := rt.Submit(w); err != nil && runErr == nil {
			runErr = err
		}
	}

	admit := func(c *conversation) bool {
		if cfg.KV != nil {
			if !cfg.KV.CanAdmit(perConv) {
				return false
			}
			if err := cfg.KV.Admit(c.id, perConv); err != nil {
				if runErr == nil {
					runErr = err
				}
				return false
			}
		}
		submitStep(c)
		return true
	}

	rt.SetOnDone(func(done runtimes.Completion) {
		c := outstanding[done.ID]
		if c == nil {
			if runErr == nil {
				runErr = fmt.Errorf("generate: completion for unknown submission %d", done.ID)
			}
			return
		}
		delete(outstanding, done.ID)
		if c.step == 0 {
			ledger.FirstToken(c.id, done.Done)
		}
		c.step++
		if c.step > cfg.GenTokens {
			ledger.Finish(c.id, done.Done)
			if cfg.KV != nil {
				cfg.KV.Release(c.id)
			}
			for len(admitQueue) > 0 && admit(admitQueue[0]) {
				admitQueue = admitQueue[1:]
			}
			return
		}
		submitStep(c)
	})

	for i := 0; i < cfg.Conversations; i++ {
		i := i
		eng.At(simclock.Time(i)*simclock.Time(cfg.ArrivalGap), func(now simclock.Time) {
			ledger.Arrive(i, now)
			c := &conversation{id: i}
			if !admit(c) {
				queued++
				admitQueue = append(admitQueue, c)
			}
		})
	}
	eng.Run()
	if runErr != nil {
		return Result{QueuedForKV: queued}, runErr
	}
	res, err := ledger.Result(cfg.GenTokens)
	res.QueuedForKV = queued
	return res.Result, err
}
