package gpusim

import (
	"reflect"
	"testing"
	"time"

	"liger/internal/race"
	"liger/internal/simclock"
)

// Kernel instances are pooled: these tests drive every path that hands
// an instance back (plain finish, collective finish and abort, the
// late joiner of an aborted group, the failed-device cancel path) under
// a span tracer, twice in a row so the second run reuses what the first
// released. A stale field or an instance released while still
// referenced shows up as a missing, duplicated or different span.

// launchFunc launches spec on s and counts the launch.
type launchFunc func(s *Stream, spec KernelSpec)

// checkPooledRuns runs scenario twice on fresh nodes and checks that
// each run reports exactly one span and one completion callback per
// launch, with unique span ids, and that both runs report the same
// spans.
func checkPooledRuns(t *testing.T, gpus int, scenario func(eng *simclock.Engine, n *Node, launch launchFunc)) {
	t.Helper()
	var runs [2][]KernelSpan
	for i := range runs {
		eng, n := testNode(t, gpus)
		rec := &testTracer{}
		n.SetTracer(rec)
		launches, done := 0, 0
		scenario(eng, n, func(s *Stream, spec KernelSpec) {
			onDone := spec.OnDone
			spec.OnDone = func(now simclock.Time) {
				done++
				if onDone != nil {
					onDone(now)
				}
			}
			s.Launch(spec)
			launches++
		})
		eng.Run()
		if len(rec.spans) != launches || done != launches {
			t.Fatalf("run %d: %d spans and %d completions for %d launches",
				i, len(rec.spans), done, launches)
		}
		seen := make(map[int]bool)
		for _, sp := range rec.spans {
			if seen[sp.ID] {
				t.Fatalf("run %d: span id %d reported twice", i, sp.ID)
			}
			seen[sp.ID] = true
		}
		runs[i] = rec.spans
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("spans differ between runs:\n%+v\n%+v", runs[0], runs[1])
	}
}

func arSpec(coll *Collective, onDone func(simclock.Time)) KernelSpec {
	return KernelSpec{Name: "ar", Class: Comm, Duration: 100 * time.Microsecond,
		ComputeDemand: 0.05, MemBWDemand: 0.3, Coll: coll, Req: -1, OnDone: onDone}
}

func computeSpec(name string, dur time.Duration) KernelSpec {
	return KernelSpec{Name: name, Class: Compute, Duration: dur,
		ComputeDemand: 0.5, MemBWDemand: 0.2, Req: -1}
}

// A device fails mid-collective; the last member, queued behind a long
// kernel, joins the aborted group late. Work queued behind the members
// still runs (or cancels, on the dead device), and a completion
// callback launches more work that reuses released instances.
func TestPoolDeviceFailMidCollectiveLateJoiner(t *testing.T) {
	checkPooledRuns(t, 4, func(eng *simclock.Engine, n *Node, launch launchFunc) {
		coll := n.NewCollective(4)
		streams := make([]*Stream, 4)
		for d := range streams {
			streams[d] = n.NewStream(d)
		}
		launch(streams[3], computeSpec("long", 80*time.Microsecond))
		for d, s := range streams {
			d := d
			launch(s, arSpec(coll, func(simclock.Time) {
				if d == 0 {
					launch(streams[0], computeSpec("relaunch", 5*time.Microsecond))
				}
			}))
			launch(s, computeSpec("after", 10*time.Microsecond))
		}
		eng.At(30*time.Microsecond, func(simclock.Time) { n.FailDevice(2) })
	})
}

// The collective watchdog aborts a rendezvous one member short; the
// missing member arrives after the abort and is cleaned up on join.
func TestPoolCollectiveTimeoutAbort(t *testing.T) {
	checkPooledRuns(t, 4, func(eng *simclock.Engine, n *Node, launch launchFunc) {
		n.SetCollectiveTimeout(50 * time.Microsecond)
		coll := n.NewCollective(4)
		for d := 0; d < 3; d++ {
			s := n.NewStream(d)
			launch(s, arSpec(coll, nil))
			launch(s, computeSpec("after", 10*time.Microsecond))
		}
		eng.At(200*time.Microsecond, func(simclock.Time) {
			launch(n.NewStream(3), arSpec(coll, nil))
		})
		// A second, healthy collective completes normally alongside.
		ok := n.NewCollective(2)
		ok.SetTimeout(0)
		for d := 0; d < 2; d++ {
			launch(n.NewStream(d), arSpec(ok, nil))
		}
	})
}

// Kernels queued on a device when it fails cancel through the stream
// path, including a collective member whose group then aborts, and
// kernels launched onto the dead device afterwards, whose completion
// callback relaunches onto the survivor.
func TestPoolQueuedKernelsCancelledOnFailedDevice(t *testing.T) {
	checkPooledRuns(t, 2, func(eng *simclock.Engine, n *Node, launch launchFunc) {
		s0, s1 := n.NewStream(0), n.NewStream(1)
		coll := n.NewCollective(2)
		for i := 0; i < 3; i++ {
			launch(s0, KernelSpec{Name: "big", Class: Compute, Duration: 50 * time.Microsecond,
				ComputeDemand: 0.9, MemBWDemand: 0.2, Req: -1})
		}
		launch(s0, arSpec(coll, nil))
		launch(s1, arSpec(coll, nil))
		launch(s1, computeSpec("survivor", 10*time.Microsecond))
		eng.At(20*time.Microsecond, func(simclock.Time) { n.FailDevice(0) })
		eng.At(40*time.Microsecond, func(simclock.Time) {
			late := computeSpec("late", 10*time.Microsecond)
			late.OnDone = func(simclock.Time) { launch(s1, computeSpec("relaunch", time.Microsecond)) }
			launch(s0, late)
		})
	})
}

// Every path that touches a kernel instance refuses one already back in
// the pool.
func TestReleasedKernelPanics(t *testing.T) {
	_, n := testNode(t, 1)
	s := n.NewStream(0)
	d := n.Device(0)
	coll := n.NewCollective(1)
	for _, tc := range []struct {
		name string
		use  func(k *kernelInstance)
	}{
		{"finish", func(k *kernelInstance) { d.finish(k, 0) }},
		{"admission", func(k *kernelInstance) { d.tryAdmit(s, k, 0) }},
		{"join", func(k *kernelInstance) { coll.join(k, 0) }},
		{"release", func(k *kernelInstance) { k.release() }},
		{"cancel", func(k *kernelInstance) {
			d.failed = true
			cmd := n.newCommand(s)
			cmd.kind, cmd.kernel, cmd.delivered = cmdKernel, k, true
			s.queue = append(s.queue, cmd)
			s.advance(0)
		}},
	} {
		k := newKernel()
		k.stream, k.state = s, kQueued
		k.release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a released kernel instance did not panic", tc.name)
				}
			}()
			tc.use(k)
		}()
	}
}

// TestKernelLaunchAllocs guards the pooled launch path: once warm, a
// plain kernel's launch, admission and completion allocate nothing.
func TestKernelLaunchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	eng, n := testNode(t, 1)
	s := n.NewStream(0)
	spec := computeSpec("k", time.Microsecond)
	run := func() {
		s.Launch(spec)
		eng.Run()
	}
	// Warm the pool, the command free list, the stream queue and every
	// bucket of the engine's calendar ring.
	for i := 0; i < 20000; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("launch+complete = %.0f allocs per kernel, want 0", allocs)
	}
}

// TestFinishClearsRunningSlots pins that removing a finished kernel from
// the device's running set leaves no pointer in the slice's spare
// capacity: a finished plain kernel goes back to the pool, and a stale
// slot would keep the recycled instance reachable.
func TestFinishClearsRunningSlots(t *testing.T) {
	eng, n := testNode(t, 1)
	for _, d := range []time.Duration{10 * time.Microsecond, 20 * time.Microsecond} {
		spec := computeSpec("k", d)
		spec.ComputeDemand = 0.3
		n.NewStream(0).Launch(spec)
	}
	eng.Run()
	d := n.devices[0]
	if len(d.running) != 0 || cap(d.running) < 2 {
		t.Fatalf("running set len %d cap %d, want empty after two concurrent kernels", len(d.running), cap(d.running))
	}
	for i, k := range d.running[:cap(d.running)] {
		if k != nil {
			t.Fatalf("running slot %d still holds a finished kernel", i)
		}
	}
}
