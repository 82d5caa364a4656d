package simclock

import (
	"testing"
	"time"
)

// TestCancelledHeapCompaction is the regression test for the
// cancelled-event leak: a workload that repeatedly cancels far-future
// events (every kernel re-time does this) must not grow the heap
// unboundedly. Cancelled entries beyond half the queue are compacted
// away.
func TestCancelledHeapCompaction(t *testing.T) {
	e := New()
	// One live anchor event, plus a long cancel/reschedule churn that
	// never pops anything (all events are far in the future).
	e.At(time.Hour, func(Time) {})
	h := e.At(time.Hour, func(Time) {})
	for i := 0; i < 100000; i++ {
		h.Cancel()
		h = e.At(time.Hour+Time(i), func(Time) {})
	}
	// Without compaction PendingRaw would be ~100002; with it the queue's
	// physical occupancy stays within a small factor of the live
	// population. Pending itself must see straight through the
	// tombstones and report exactly the live events.
	if p := e.PendingRaw(); p > 2*compactMinLen {
		t.Fatalf("queue holds %d entries after cancel churn with 2 live events", p)
	}
	if p := e.Pending(); p != 2 {
		t.Fatalf("Pending = %d after cancel churn, want 2 live events", p)
	}
	// The live events must survive compaction and still fire.
	fired := 0
	e.At(2*time.Hour, func(Time) {}) // ensure the churn handle's final event has company
	for e.Step() {
		fired++
	}
	if fired != 3 {
		t.Fatalf("fired %d events after compaction, want 3", fired)
	}
}

// TestStaleHandleCannotCancelRecycledItem pins the free-list safety
// property: once an event fires its heap item is recycled, and a stale
// Handle kept from before must not cancel whatever event the recycled
// item now carries.
func TestStaleHandleCannotCancelRecycledItem(t *testing.T) {
	e := New()
	stale := e.At(time.Microsecond, func(Time) {})
	if !e.Step() {
		t.Fatal("event did not fire")
	}
	// The recycled item is reused by the next At.
	fired := false
	e.At(time.Millisecond, func(Time) { fired = true })
	stale.Cancel() // must be a no-op on the recycled item
	e.Run()
	if !fired {
		t.Fatal("stale Handle cancelled a recycled item's event")
	}
}

// TestCancelCompactionPreservesOrder checks that compaction (a heap
// rebuild) cannot reorder live events: FIFO tie-breaking and time order
// survive arbitrary cancel churn.
func TestCancelCompactionPreservesOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 200; i++ {
		i := i
		e.At(time.Second+Time(i/2), func(Time) { got = append(got, i) })
	}
	// Cancel enough far-future filler to force repeated compactions.
	for round := 0; round < 10; round++ {
		var hs []Handle
		for i := 0; i < 300; i++ {
			hs = append(hs, e.At(time.Hour, func(Time) {}))
		}
		for _, h := range hs {
			h.Cancel()
		}
	}
	e.Run()
	if len(got) != 200 {
		t.Fatalf("fired %d live events, want 200", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("live events reordered after compaction: got[%d]=%d", i, v)
		}
	}
}

// TestStaleHandleAfterSlabGrowth pins the slab's generation check: a
// Handle names a slot and the slot's generation. After its event fired,
// the slot is reused by a later schedule and the slab grows far past
// it; the stale Handle must still be a no-op, and so must a Handle to
// the reused slot's cancelled event once the slot is reused again.
func TestStaleHandleAfterSlabGrowth(t *testing.T) {
	e := New()
	stale := e.At(time.Microsecond, func(Time) {})
	if !e.Step() {
		t.Fatal("event did not fire")
	}
	reused := e.At(time.Millisecond, func(Time) { t.Error("cancelled event fired") })
	if reused.idx != stale.idx {
		t.Fatalf("schedule took slot %d, want the freed slot %d", reused.idx, stale.idx)
	}
	fired := 0
	for i := 0; i < 1000; i++ {
		e.At(time.Millisecond+Time(i), func(Time) { fired++ })
	}
	if len(e.slots) < 1000 {
		t.Fatalf("slab holds %d slots, want it grown past 1000", len(e.slots))
	}
	stale.Cancel() // must not touch the reused slot's event
	reused.Cancel()
	if p := e.Pending(); p != 1000 {
		t.Fatalf("Pending = %d, want 1000", p)
	}
	e.Run()
	// Every slot is free again; the next event reuses one of them.
	e.At(e.Now()+time.Millisecond, func(Time) { fired++ })
	stale.Cancel()
	reused.Cancel()
	e.Run()
	if fired != 1001 {
		t.Fatalf("fired %d events, want 1001: a stale Handle cancelled a live one", fired)
	}
}
