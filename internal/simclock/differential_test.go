package simclock

import (
	"math/rand"
	"testing"
	"time"

	"liger/internal/simclock/refheap"
)

// The differential property test drives the calendar-queue engine and
// the frozen binary-heap reference (internal/simclock/refheap) side by
// side through the same randomized workload and asserts they agree on
// everything observable: fire order, the clock value passed to each
// callback, Now, Fired, Pending, and NextEventAt. Both engines order
// events by the same strict total order (at, seq), so any divergence is
// a bug in one of the queues, not a legitimate implementation choice.

// diffPair keeps the two engines plus the shared workload bookkeeping.
type diffPair struct {
	t   *testing.T
	cal *Engine
	ref *refheap.Engine

	// calFired / refFired log (event id, now) pairs per engine.
	calFired []firing
	refFired []firing

	handles []diffHandle
	nextID  int
}

type firing struct {
	id  int
	now Time
}

type diffHandle struct {
	cal  Handle
	ref  refheap.Handle
	live bool
}

func newDiffPair(t *testing.T) *diffPair {
	return &diffPair{t: t, cal: New(), ref: refheap.New()}
}

// scheduleAt arms the same event on both engines.
func (p *diffPair) scheduleAt(at Time) {
	id := p.nextID
	p.nextID++
	ch := p.cal.At(at, func(now Time) { p.calFired = append(p.calFired, firing{id, now}) })
	rh := p.ref.At(at, func(now refheap.Time) { p.refFired = append(p.refFired, firing{id, now}) })
	p.handles = append(p.handles, diffHandle{cal: ch, ref: rh, live: true})
}

// cancel cancels handle i on both engines (stale/double cancels included
// on purpose — they must be no-ops on both sides).
func (p *diffPair) cancel(i int) {
	p.handles[i].cal.Cancel()
	p.handles[i].ref.Cancel()
	p.handles[i].live = false
}

// check asserts every observable agrees between the engines.
func (p *diffPair) check() {
	p.t.Helper()
	if len(p.calFired) != len(p.refFired) {
		p.t.Fatalf("fired %d events on calendar, %d on refheap", len(p.calFired), len(p.refFired))
	}
	for i := range p.calFired {
		if p.calFired[i] != p.refFired[i] {
			p.t.Fatalf("firing %d diverged: calendar (id=%d now=%v), refheap (id=%d now=%v)",
				i, p.calFired[i].id, p.calFired[i].now, p.refFired[i].id, p.refFired[i].now)
		}
	}
	if p.cal.Now() != p.ref.Now() {
		p.t.Fatalf("Now diverged: calendar %v, refheap %v", p.cal.Now(), p.ref.Now())
	}
	if p.cal.Fired() != p.ref.Fired() {
		p.t.Fatalf("Fired diverged: calendar %d, refheap %d", p.cal.Fired(), p.ref.Fired())
	}
	if p.cal.Pending() != p.ref.Pending() {
		p.t.Fatalf("Pending diverged: calendar %d, refheap %d", p.cal.Pending(), p.ref.Pending())
	}
	ca, cok := p.cal.NextEventAt()
	ra, rok := p.ref.NextEventAt()
	if cok != rok || ca != ra {
		p.t.Fatalf("NextEventAt diverged: calendar (%v,%v), refheap (%v,%v)", ca, cok, ra, rok)
	}
}

// TestDifferentialRandomWorkloads is the main differential property
// test: seeded random mixes of schedule / cancel / re-arm / Step /
// RunUntil / RunFor, with timestamp distributions chosen to stress every
// band and transition of the calendar queue — same-instant bursts,
// dense near-horizon clusters, far-future outliers, and mass-cancel
// churn that forces compaction on both sides.
func TestDifferentialRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := newDiffPair(t)
			for op := 0; op < 4000; op++ {
				switch k := rng.Intn(100); {
				case k < 35: // schedule with a band-stressing offset
					var off Time
					switch rng.Intn(6) {
					case 0: // same-instant burst
						off = 0
					case 1: // sub-bucket cluster
						off = Time(rng.Intn(64)) * time.Nanosecond
					case 2: // near horizon (current window)
						off = Time(rng.Intn(1000)) * time.Microsecond
					case 3: // beyond the initial window -> far band
						off = Time(rng.Intn(100)) * time.Millisecond
					case 4: // deep far future
						off = time.Hour + Time(rng.Intn(1000))*time.Second
					case 5: // sentinel-scale, like kernels at rate 0
						// Target an absolute instant near 2^60, not a relative
						// offset: repeated now+2^60 hops would ratchet the
						// clock into int64 overflow.
						if at := Time(1<<60) + Time(rng.Intn(1000)); at >= p.cal.Now() {
							off = at - p.cal.Now()
						} else {
							off = time.Hour
						}
					}
					p.scheduleAt(p.cal.Now() + off)
				case k < 50: // cancel a random handle (stale ones included)
					if len(p.handles) > 0 {
						p.cancel(rng.Intn(len(p.handles)))
					}
				case k < 60: // re-arm: cancel then schedule, the kernel re-time pattern
					if len(p.handles) > 0 {
						p.cancel(rng.Intn(len(p.handles)))
						p.scheduleAt(p.cal.Now() + Time(rng.Intn(2000))*time.Microsecond)
					}
				case k < 64: // mass-cancel churn to force compaction
					var idx []int
					for i, h := range p.handles {
						if h.live && rng.Intn(4) > 0 {
							idx = append(idx, i)
						}
					}
					for _, i := range idx {
						p.cancel(i)
					}
				case k < 85: // step both
					cs := p.cal.Step()
					rs := p.ref.Step()
					if cs != rs {
						t.Fatalf("Step diverged: calendar %v, refheap %v", cs, rs)
					}
				case k < 95: // bounded run
					d := Time(rng.Intn(5000)) * time.Microsecond
					p.cal.RunFor(d)
					p.ref.RunFor(d)
				default: // absolute-deadline run (deadline inclusive)
					dl := p.cal.Now() + Time(rng.Intn(2000))*time.Microsecond
					p.cal.RunUntil(dl)
					p.ref.RunUntil(dl)
				}
				p.check()
			}
			// Drain both completely: every remaining live event fires in
			// the same order.
			p.cal.Run()
			p.ref.Run()
			p.check()
			if p.cal.Pending() != 0 {
				t.Fatalf("calendar left %d pending after Run", p.cal.Pending())
			}
		})
	}
}

// TestDifferentialSameInstantBurst pins FIFO tie-breaking across a burst
// far larger than a bucket, interleaved with cancels of every third
// event.
func TestDifferentialSameInstantBurst(t *testing.T) {
	p := newDiffPair(t)
	at := 3 * time.Millisecond
	for i := 0; i < 5000; i++ {
		p.scheduleAt(at)
	}
	for i := 0; i < len(p.handles); i += 3 {
		p.cancel(i)
	}
	p.cal.Run()
	p.ref.Run()
	p.check()
}

// TestDifferentialIdleJumpThenNearSchedule exercises the rebase path:
// NextEventAt on a far-only queue slides the calendar window deep into
// the future, then a schedule lands between the clock and the new
// window start.
func TestDifferentialIdleJumpThenNearSchedule(t *testing.T) {
	p := newDiffPair(t)
	p.scheduleAt(time.Hour)
	p.check() // NextEventAt inside check() forces the idle window jump
	p.scheduleAt(5 * time.Microsecond)
	p.scheduleAt(2 * time.Second)
	p.check()
	cs := p.cal.Step()
	rs := p.ref.Step()
	if cs != rs || !cs {
		t.Fatalf("Step diverged after rebase: calendar %v, refheap %v", cs, rs)
	}
	p.cal.Run()
	p.ref.Run()
	p.check()
	if st := p.cal.Stats(); st.Rebases == 0 {
		t.Fatal("workload did not exercise the rebase path")
	}
}

// TestDifferentialDecodeInsertPattern replays the insert pattern of a
// decode workload: idle gaps widen the ring until one bucket spans the
// whole near-term horizon, then a dense burst keeps inserting near-term
// events into the middle of that crowded current bucket, ahead of
// entries already queued behind them, until the ring narrows. Both
// engines must agree throughout.
func TestDifferentialDecodeInsertPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newDiffPair(t)
	// Idle gaps: chunks of four events 1 ms apart, each chunk beyond the
	// window, so every reload follows a window that turned over mostly
	// empty buckets and widens them.
	for chunk := 0; chunk < 10; chunk++ {
		start := p.cal.Now() + 100*time.Millisecond
		for j := 0; j < 4; j++ {
			p.scheduleAt(start + Time(j)*time.Millisecond)
		}
		for j := 0; j < 4; j++ {
			p.cal.Step()
			p.ref.Step()
			p.check()
		}
	}
	wide := p.cal.shift
	if wide <= initShift {
		t.Fatalf("idle gaps left the bucket shift at %d, want wider than %d", wide, initShift)
	}
	// The burst: a standing population spread over the next 200 µs, then
	// every step re-arms two events a few microseconds out.
	for i := 0; i < 150; i++ {
		p.scheduleAt(p.cal.Now() + Time(rng.Intn(200))*time.Microsecond)
	}
	p.check()
	mid := p.cal.Stats().MidInserts
	for op := 0; op < 3000; op++ {
		cs, rs := p.cal.Step(), p.ref.Step()
		if cs != rs {
			t.Fatalf("Step diverged: calendar %v, refheap %v", cs, rs)
		}
		for j := 0; j < 2; j++ {
			p.scheduleAt(p.cal.Now() + Time(rng.Intn(20000))*time.Nanosecond)
		}
		if op%7 == 0 && len(p.handles) > 0 {
			p.cancel(rng.Intn(len(p.handles)))
		}
		p.check()
	}
	if p.cal.Stats().MidInserts == mid {
		t.Fatal("the burst never inserted into the middle of a bucket")
	}
	if p.cal.shift >= wide {
		t.Fatalf("crowded mid-bucket inserts left the bucket shift at %d, want narrower than %d", p.cal.shift, wide)
	}
	p.cal.Run()
	p.ref.Run()
	p.check()
}
