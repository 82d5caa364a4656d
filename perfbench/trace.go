package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/runtimes"
	"liger/internal/serve"
)

// span is one call from the benchmark into a layer of the simulator,
// timed on the host clock. Spans live in memory while the workload runs
// and are written out once it has finished.
type span struct {
	Layer string `json:"layer"`
	Name  string `json:"name"`
	// Start and End are host nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the enclosing span, -1 at top level.
	Parent int `json:"parent"`
	// Req is the serving-layer request id of a Submit span, else -1.
	Req int `json:"req"`
}

// submission is one batch a runtime received, kept for the compile
// replay (see replay.go).
type submission struct {
	kind     string
	comp     *parallel.Compiler
	spec     model.Spec
	tp       int
	workload model.Workload
}

// tracer records the traced run's spans, the submissions the compile
// replay needs, and the fleet router's decisions. A nil *tracer means
// the run is untraced: workloads then call the simulator directly,
// without wrappers.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	submit []submission
	// routes counts fleet-router decisions by kind (dispatch, hedge,
	// retry, redispatch, shed, park, flush).
	routes map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), routes: make(map[string]int)}
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *tracer) begin(layer, name string, req int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span when tracing, and bare otherwise.
func (t *tracer) do(layer, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	i := t.begin(layer, name, -1)
	err := fn()
	t.end(i)
	return err
}

// RouterDecision implements serve.RouterTracer.
func (t *tracer) RouterDecision(d serve.RouterDecision) { t.routes[d.Kind]++ }

// durations returns the host durations of every span with this layer
// and name.
func (t *tracer) durations(layer, name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// writeSpans writes the spans as JSON to path, creating its directory.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// timedRuntime forwards a runtime and times every submission as a
// runtimes span carrying the request id.
type timedRuntime struct {
	rt runtimes.Runtime
	tr *tracer
	// sub is filled in per call; the compile replay needs the runtime's
	// compiler, model and parallel degree next to each workload.
	sub submission
}

func (r *timedRuntime) Name() string                           { return r.rt.Name() }
func (r *timedRuntime) SetOnDone(fn func(runtimes.Completion)) { r.rt.SetOnDone(fn) }
func (r *timedRuntime) Submit(w model.Workload) error {
	return r.timed(w, -1, func() error { return r.rt.Submit(w) })
}
func (r *timedRuntime) timed(w model.Workload, req int, fn func() error) error {
	s := r.sub
	s.workload = w
	r.tr.submit = append(r.tr.submit, s)
	i := r.tr.begin("runtimes", "Submit", req)
	err := fn()
	r.tr.end(i)
	return err
}

// taggedPart adds runtimes.Tagged to a wrapper whose runtime has it.
type taggedPart struct {
	r  *timedRuntime
	tg runtimes.Tagged
}

func (p taggedPart) SubmitReq(w model.Workload, req int) error {
	return p.r.timed(w, req, func() error { return p.tg.SubmitReq(w, req) })
}

// wrapRuntime returns rt behind a timing wrapper that implements
// exactly the optional interfaces rt implements (runtimes.Tagged and
// runtimes.Elastic), so the serving layer takes the same paths with
// and without it.
func wrapRuntime(rt runtimes.Runtime, tr *tracer, sub submission) runtimes.Runtime {
	base := &timedRuntime{rt: rt, tr: tr, sub: sub}
	tg, tagged := rt.(runtimes.Tagged)
	el, elastic := rt.(runtimes.Elastic)
	switch {
	case tagged && elastic:
		return struct {
			*timedRuntime
			taggedPart
			runtimes.Elastic
		}{base, taggedPart{base, tg}, el}
	case tagged:
		return struct {
			*timedRuntime
			taggedPart
		}{base, taggedPart{base, tg}}
	case elastic:
		return struct {
			*timedRuntime
			runtimes.Elastic
		}{base, el}
	default:
		return base
	}
}

// timedKV forwards a KV allocator and times every call as a kvcache
// span.
type timedKV struct {
	kv serve.KVAllocator
	tr *tracer
}

func (k *timedKV) CanAdmit(tokens int) (ok bool) {
	i := k.tr.begin("kvcache", "CanAdmit", -1)
	ok = k.kv.CanAdmit(tokens)
	k.tr.end(i)
	return ok
}

func (k *timedKV) Admit(seqID, promptTokens int) error {
	i := k.tr.begin("kvcache", "Admit", -1)
	err := k.kv.Admit(seqID, promptTokens)
	k.tr.end(i)
	return err
}

func (k *timedKV) Extend(seqID int) error {
	i := k.tr.begin("kvcache", "Extend", -1)
	err := k.kv.Extend(seqID)
	k.tr.end(i)
	return err
}

func (k *timedKV) Release(seqID int) {
	i := k.tr.begin("kvcache", "Release", -1)
	k.kv.Release(seqID)
	k.tr.end(i)
}

// preemptPart adds serve.PreemptingAllocator's extra methods to a
// wrapper whose allocator has them.
type preemptPart struct {
	k  *timedKV
	pa serve.PreemptingAllocator
}

func (p preemptPart) UnderPressure() (ok bool) {
	i := p.k.tr.begin("kvcache", "UnderPressure", -1)
	ok = p.pa.UnderPressure()
	p.k.tr.end(i)
	return ok
}

func (p preemptPart) Preempt() (seqID, tokens int, ok bool) {
	i := p.k.tr.begin("kvcache", "Preempt", -1)
	seqID, tokens, ok = p.pa.Preempt()
	p.k.tr.end(i)
	return seqID, tokens, ok
}

// wrapKV returns kv behind a timing wrapper that implements exactly the
// optional interfaces kv implements (serve.PreemptingAllocator and
// serve.BlockStats). BlockStats reads are gauges the batcher samples,
// so they are forwarded untimed.
func wrapKV(kv serve.KVAllocator, tr *tracer) serve.KVAllocator {
	base := &timedKV{kv: kv, tr: tr}
	pa, preempting := kv.(serve.PreemptingAllocator)
	bs, blocks := kv.(serve.BlockStats)
	switch {
	case preempting && blocks:
		return struct {
			*timedKV
			preemptPart
			serve.BlockStats
		}{base, preemptPart{base, pa}, bs}
	case preempting:
		return struct {
			*timedKV
			preemptPart
		}{base, preemptPart{base, pa}}
	case blocks:
		return struct {
			*timedKV
			serve.BlockStats
		}{base, bs}
	default:
		return base
	}
}
