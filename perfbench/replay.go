package main

import (
	"fmt"
	"runtime"
	"time"

	"liger/internal/core"
	"liger/internal/liger"
	"liger/internal/model"
)

// replayStats sizes a compile-once plan cache before anyone builds one:
// every workload a runtime received, compiled again by itself.
type replayStats struct {
	compiles int
	distinct int
	// p50/p99 are host durations of one compile.
	p50, p99 time.Duration
	// allocsPerCompile is heap allocations per compile.
	allocsPerCompile float64
}

// shapeKey identifies a compile input: a cache keyed by it would hit
// whenever a runtime sees the same shape again.
type shapeKey struct {
	kind string
	tp   int
	spec string
	w    model.Workload
}

// replay compiles every recorded submission again the way its runtime
// did: Liger through liger.Assembler.Assemble, the baselines through
// parallel.Compiler.IntraOp, InterOp or InterTh.
func replay(subs []submission) (replayStats, error) {
	st := replayStats{compiles: len(subs)}
	if len(subs) == 0 {
		return st, nil
	}
	shapes := make(map[shapeKey]bool)
	durs := make([]time.Duration, 0, len(subs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, s := range subs {
		shapes[shapeKey{s.kind, s.tp, s.spec.Name, s.workload}] = true
		t0 := time.Now()
		var err error
		switch s.kind {
		case core.KindLiger.String():
			var asm *liger.Assembler
			if asm, err = liger.NewAssembler(s.comp, s.spec, s.tp); err == nil {
				_, err = asm.Assemble(s.workload)
			}
		case core.KindIntraOp.String():
			_, err = s.comp.IntraOp(s.spec, s.tp, s.workload)
		case core.KindInterOp.String():
			_, err = s.comp.InterOp(s.spec, s.tp, s.workload)
		case core.KindInterTh.String():
			_, err = s.comp.InterTh(s.spec, s.tp, s.workload)
		default:
			err = fmt.Errorf("no compile path for runtime %q", s.kind)
		}
		durs = append(durs, time.Since(t0))
		if err != nil {
			return st, fmt.Errorf("compile replay: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	st.distinct = len(shapes)
	st.allocsPerCompile = float64(m1.Mallocs-m0.Mallocs) / float64(len(subs))
	st.p50, st.p99 = pct(durs, 50), pct(durs, 99)
	return st, nil
}
