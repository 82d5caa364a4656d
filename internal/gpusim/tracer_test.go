package gpusim

import "liger/internal/simclock"

// testTracer is the Tracer of gpusim's own tests: it keeps the kernel
// spans and dep records and ignores every other event. (trace.Recorder
// imports gpusim, so these tests cannot use it.)
type testTracer struct {
	spans []KernelSpan
	deps  []KernelDep
}

func (r *testTracer) KernelSpan(sp KernelSpan)                        { r.spans = append(r.spans, sp) }
func (r *testTracer) KernelDep(dep KernelDep)                         { r.deps = append(r.deps, dep) }
func (*testTracer) CollectiveEnqueue(int, int, int, simclock.Time)    {}
func (*testTracer) RendezvousBegin(int, int, int, int, simclock.Time) {}
func (*testTracer) TransferStart(int, simclock.Time)                  {}
func (*testTracer) CollectiveFinish(int, simclock.Time)               {}
func (*testTracer) CollectiveAbort(int, simclock.Time)                {}
func (*testTracer) RateChange(int, float64, float64, simclock.Time)   {}
func (*testTracer) DeviceFailed(int, simclock.Time)                   {}
func (*testTracer) RecoveryBegin(simclock.Time)                       {}
func (*testTracer) RecoveryEnd(simclock.Time)                         {}
func (*testTracer) QueueDepth(int, int, simclock.Time)                {}
