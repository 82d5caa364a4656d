// Package serve is the serving layer: it generates request traces,
// drives a runtime with timed batch arrivals on the simulation clock,
// and collects the paper's metrics — average latency (pending +
// execution) and throughput — over a run of many requests (§4.1 uses
// 2000 requests per data point).
package serve

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"liger/internal/model"
	"liger/internal/simclock"
)

// diurnalAmplitude is the Diurnal process's rate swing around nominal.
const diurnalAmplitude = 0.6

// Arrival is one batch arriving at a virtual instant.
type Arrival struct {
	At       simclock.Time
	Workload model.Workload
}

// TraceConfig describes a synthetic request trace. The paper's general
// evaluation (§4.2) uses a constant batch arrival rate with sequence
// lengths drawn uniformly from 16–128.
type TraceConfig struct {
	// Batches is the number of batch arrivals to generate.
	Batches int
	// BatchSize is the number of requests packed per batch.
	BatchSize int
	// RatePerSec is the batch arrival rate. The paper uses a constant
	// rate; Poisson and bursty processes are available as extensions.
	RatePerSec float64
	// MinSeq and MaxSeq bound the per-batch sequence length (uniform).
	MinSeq, MaxSeq int
	// Phase selects the execution regime; Decode uses CtxLen instead of
	// a sampled sequence length.
	Phase model.Phase
	// CtxLen is the KV-cache length for Decode traces (§4.3 starts at
	// 16).
	CtxLen int
	// Process selects the arrival process.
	Process ArrivalProcess
	// Seed makes the trace deterministic.
	Seed int64
}

// ArrivalProcess selects how inter-arrival gaps are drawn.
type ArrivalProcess int

const (
	// ConstantRate spaces arrivals exactly 1/rate apart (the paper's
	// setting: "we use a constant request rate instead of a fluctuated
	// request rate").
	ConstantRate ArrivalProcess = iota
	// Poisson draws exponential inter-arrival gaps at the same mean
	// rate.
	Poisson
	// Bursty alternates dense bursts with quiet gaps at the same mean
	// rate.
	Bursty
	// Diurnal modulates the arrival rate sinusoidally — two full
	// day/night cycles over the nominal trace span, instantaneous rate
	// swinging between 0.4x and 1.6x nominal. Deterministic (no random
	// draws), so it never perturbs the sequence-length stream.
	Diurnal
)

func (p ArrivalProcess) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	default:
		return "constant"
	}
}

// Validate reports bad trace configurations.
func (c TraceConfig) Validate() error {
	switch {
	case c.Batches <= 0:
		return fmt.Errorf("serve: trace needs a positive batch count")
	case c.BatchSize <= 0:
		return fmt.Errorf("serve: batch size %d", c.BatchSize)
	case c.RatePerSec <= 0 || math.IsNaN(c.RatePerSec) || math.IsInf(c.RatePerSec, 1):
		return fmt.Errorf("serve: arrival rate %v", c.RatePerSec)
	case c.Phase == model.Context && (c.MinSeq <= 0 || c.MaxSeq < c.MinSeq):
		return fmt.Errorf("serve: bad sequence range [%d, %d]", c.MinSeq, c.MaxSeq)
	case c.Phase == model.Decode && c.CtxLen <= 0:
		return fmt.Errorf("serve: decode trace needs a context length")
	}
	return nil
}

// Generate produces the deterministic arrival trace.
func Generate(c TraceConfig) ([]Arrival, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	gap := time.Duration(float64(time.Second) / c.RatePerSec)
	out := make([]Arrival, 0, c.Batches)
	var at simclock.Time
	for i := 0; i < c.Batches; i++ {
		w := model.Workload{Batch: c.BatchSize, Phase: c.Phase}
		if c.Phase == model.Decode {
			w.CtxLen = c.CtxLen
		} else {
			w.SeqLen = c.MinSeq + rng.Intn(c.MaxSeq-c.MinSeq+1)
		}
		out = append(out, Arrival{At: at, Workload: w})
		switch c.Process {
		case Poisson:
			at += time.Duration(rng.ExpFloat64() * float64(gap))
		case Bursty:
			// Groups of 4 back-to-back, then a 4x gap: same mean rate.
			if (i+1)%4 == 0 {
				at += 4 * gap
			}
		case Diurnal:
			// Two sinusoidal cycles over the nominal span: the gap
			// stretches through the trough and compresses through the
			// peak, modelling day/night traffic.
			span := float64(gap) * float64(c.Batches)
			phase := 2 * math.Pi * float64(at) / (span / 2)
			at += time.Duration(float64(gap) / (1 + diurnalAmplitude*math.Sin(phase)))
		default:
			at += gap
		}
	}
	return out, nil
}

// Pack is the batching frontend of the paper's workflow (Fig. 5) as a
// trace transform: it groups a request-level trace — context-phase
// arrivals in time order, typically Generate with BatchSize 1 — into
// the batch trace Run serves. A batch closes at its maxBatch-th
// arrival or once its oldest request has waited maxWait (a request
// arriving at exactly that instant still joins), and is padded to its
// longest sequence. batches[j].At is batch j's close instant and
// batchOf[i] the batch request i joined, so request i's latency is
// Result.PerRequest[batchOf[i]].Done - reqs[i].At.
func Pack(reqs []Arrival, maxBatch int, maxWait time.Duration) (batches []Arrival, batchOf []int, err error) {
	switch {
	case maxBatch < 1:
		return nil, nil, fmt.Errorf("serve: pack max batch %d", maxBatch)
	case maxWait <= 0:
		return nil, nil, fmt.Errorf("serve: pack max wait %v", maxWait)
	case len(reqs) == 0:
		return nil, nil, fmt.Errorf("serve: empty request trace")
	}
	for i, r := range reqs {
		if r.Workload.Phase != model.Context {
			return nil, nil, fmt.Errorf("serve: pack request %d is not a context-phase request", i)
		}
		if i > 0 && r.At < reqs[i-1].At {
			return nil, nil, fmt.Errorf("serve: pack request %d arrives before request %d", i, i-1)
		}
	}
	batchOf = make([]int, len(reqs))
	for start := 0; start < len(reqs); {
		closeAt := reqs[start].At + simclock.Time(maxWait)
		end := start + 1
		for end < len(reqs) && end-start < maxBatch && reqs[end].At <= closeAt {
			end++
		}
		if end-start == maxBatch {
			closeAt = reqs[end-1].At
		}
		w := model.Workload{Phase: model.Context}
		for i := start; i < end; i++ {
			w.Batch += reqs[i].Workload.Batch
			w.SeqLen = max(w.SeqLen, reqs[i].Workload.SeqLen)
			batchOf[i] = len(batches)
		}
		batches = append(batches, Arrival{At: closeAt, Workload: w})
		start = end
	}
	return batches, batchOf, nil
}
