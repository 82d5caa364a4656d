// Package simclock provides the discrete-event simulation engine on which
// the whole multi-GPU node model is built.
//
// The engine keeps a virtual clock and a priority queue of timed events.
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking), which makes every simulation fully
// deterministic: two runs with the same inputs produce identical traces.
//
// An Engine is single-goroutine state: it shares nothing with other
// Engine instances, so independent simulations can run concurrently on
// separate goroutines (one engine per goroutine) without synchronization.
//
// # Queue design
//
// Events live in a two-band calendar queue instead of a binary heap (see
// docs/PERF.md for the full design and its measured throughput):
//
//   - the near band is a ring of fixed-width time buckets covering the
//     window [winStart, winStart+nb·width). Enqueue into a future bucket
//     is an O(1) append; a bucket is sorted once, lazily, when the clock
//     reaches it, so the near-horizon events that dominate kernel
//     scheduling cost O(1) amortized to enqueue and dequeue;
//   - events beyond the window overflow into the far band, a min-heap
//     ordered by (time, seq), and migrate into the ring as the window
//     slides over them.
//
// The firing order is the total order on (time, seq) — exactly the order
// the old heap produced — so the rewrite is semantically invisible: the
// differential test in this package drives both engines side by side
// through randomized workloads and asserts identical behaviour.
//
// Hot-path notes: callbacks live by value in a per-engine slab. The
// buckets and the far heap hold 16-byte entries (the time and a key
// packing seq with the slab index) and the free list holds slab
// indices, so moving an entry costs no GC write barrier and steady-state
// stepping allocates nothing. Cancellation is O(1) (a tombstone flag),
// and the queue is compacted when tombstones outnumber live events.
// Bucket width self-tunes: the ring widens when events are too sparse
// for the window and narrows when inserts keep landing in the middle of
// a crowded bucket.
package simclock

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// Time is an instant on the virtual clock, expressed as a duration since
// the start of the simulation. Using time.Duration (int64 nanoseconds)
// keeps arithmetic exact; kernel durations in this domain are in the
// microsecond-to-millisecond range, far from overflow.
type Time = time.Duration

// Event is a callback scheduled to fire at a virtual instant.
type Event func(now Time)

// entry is a queued event's place in the firing order. key packs the
// event's sequence number, which breaks ties between events at the same
// instant, above the slab index of its callback: sequence numbers are
// unique, so ordering by (at, key) is exactly the (at, seq) order. The
// buckets and the far heap hold entries by value; an entry carries no
// pointer, so shifting, sorting and sifting entries costs no GC write
// barrier, and comparing two never touches the slab.
type entry struct {
	at  Time
	key uint64
}

// idxBits is the width of the slab index in an entry's key; the
// sequence number takes the remaining 40 bits.
const idxBits = 24

// idx returns the slab index of the entry's callback.
func (en *entry) idx() int32 { return int32(en.key & (1<<idxBits - 1)) }

// slot is one cell of the engine's slab: the callback of a scheduled
// event. gen is bumped every time the slot returns to the free list, so
// a stale Handle to a reused slot is a no-op (until gen wraps, 2^32
// reuses of that one slot later).
type slot struct {
	fn  Event
	gen uint32
	// cancelled events stay queued but are skipped when reached; this is
	// cheaper than removal and keeps Cancel O(1). The engine compacts
	// the queue when they pile up.
	cancelled bool
}

// Handle identifies a scheduled event so it can be cancelled: the slab
// slot that holds it and the slot's generation when it was scheduled.
type Handle struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	e := h.eng
	if e == nil {
		return
	}
	s := &e.slots[h.idx]
	if s.gen != h.gen || s.cancelled {
		return
	}
	s.cancelled = true
	s.fn = nil // release the closure immediately
	e.cancelled++
	e.maybeCompact()
}

// Calendar geometry. The ring has nb buckets; bucket width is 1<<shift
// nanoseconds, self-tuned between minShift and maxShift.
const (
	nbBits = 8
	nb     = 1 << nbBits
	nbMask = nb - 1

	// minShift = 64 ns buckets; maxShift = ~67 ms buckets (window ~17 s).
	minShift  = 6
	maxShift  = 26
	initShift = 12 // ~4.1 µs buckets, window ~1 ms: kernel-scheduling scale

	// sortInline is the bucket size up to which insertion sort beats the
	// general sort.
	sortInline = 24

	// crowdedBucket triggers a width quartering when an insert lands in
	// the middle of a sorted bucket holding more entries than this: each
	// such insert shifts the entries behind it, so a crowded current
	// bucket turns scheduling from O(1) into a memmove per event.
	crowdedBucket = 64

	// sparseWindow widens the ring at reload when the previous window
	// turned over with this many advances per pop or more.
	sparseWindow = 4
)

// compactMinLen is the queue size below which compaction is never
// worthwhile (the walk costs more than the memory it reclaims).
const compactMinLen = 64

// bucket is one slot of the near-band ring. items[head:] are the entries
// not yet consumed; sorted marks whether that slice is ordered by
// (at, seq). head > 0 implies sorted.
type bucket struct {
	items  []entry
	head   int
	sorted bool
}

// Stats are engine-level instrumentation counters (see ligerprof
// -engine-stats). All counters are cumulative over the engine's life.
type Stats struct {
	// Fired is the number of events executed.
	Fired uint64
	// MaxPending is the high-water mark of live queued events.
	MaxPending int
	// Compactions counts tombstone-compaction passes.
	Compactions uint64
	// Reloads counts window reloads from the far band (the near band
	// drained and the window re-seeded at the next far event).
	Reloads uint64
	// Rebases counts window rebases (an event scheduled before the
	// current window start forced a redistribution).
	Rebases uint64
	// Resizes counts bucket-width changes.
	Resizes uint64
	// FarPushes counts events that overflowed past the window into the
	// far band.
	FarPushes uint64
	// MidInserts counts inserts that landed before the tail of a sorted
	// bucket and so shifted the entries behind them.
	MidInserts uint64
}

// Engine is a discrete-event simulation engine. The zero value is not
// ready; use New.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64

	// Near band: ring of nb buckets. buckets[cur] holds events in
	// [winStart, winStart+width); every stored near event e satisfies
	// winStart <= e.at < winStart + nb*width.
	buckets   []bucket
	cur       int
	winStart  Time
	shift     uint
	nearCount int // entries stored in buckets (live + cancelled)
	// occ is the non-empty-bucket bitmap (by ring index), letting the
	// window slide straight to the next populated bucket instead of
	// scanning empties one by one.
	occ [nb / 64]uint64
	// crowded is set by an insert into the middle of a crowded bucket;
	// schedule narrows the ring when it sees it.
	crowded bool

	// Far band: min-heap on (at, seq) for events at or beyond the window
	// end.
	far []entry

	// cancelled counts tombstones still stored across both bands.
	cancelled int
	// slots is the slab of scheduled callbacks, indexed by entry.idx;
	// free lists the slots no queued entry refers to. At reuses a free
	// slot before growing the slab.
	slots []slot
	free  []int32
	// scratch is reused by rebase/resize redistribution passes.
	scratch []entry

	// Window-turnover counters driving width self-tuning.
	advances uint64
	pops     uint64

	stats Stats
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine {
	return &Engine{buckets: make([]bucket, nb), shift: initShift}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far; useful for
// instrumentation and run-away detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live events still queued. Cancelled
// placeholders awaiting compaction are not counted — Pending is the
// number of events that will still fire.
func (e *Engine) Pending() int { return e.nearCount + len(e.far) - e.cancelled }

// PendingRaw returns the number of stored queue entries including
// cancelled placeholders not yet compacted away — the engine's physical
// occupancy, which the compaction regression test bounds.
func (e *Engine) PendingRaw() int { return e.nearCount + len(e.far) }

// Stats returns the engine's instrumentation counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Fired = e.fired
	return s
}

// width returns the current bucket width.
func (e *Engine) width() Time { return Time(1) << e.shift }

// winEnd returns the first instant beyond the near window.
func (e *Engine) winEnd() Time { return e.winStart + Time(1)<<(e.shift+nbBits) }

// newEntry stores fn in a free slab slot (or grows the slab) and returns
// the entry that queues it at at, and the slot's generation.
func (e *Engine) newEntry(at Time, fn Event) (en entry, gen uint32) {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
		s := &e.slots[idx]
		s.fn = fn
		s.cancelled = false
		gen = s.gen
	} else {
		if len(e.slots) == 1<<idxBits {
			panic("simclock: more than 2^24 events pending")
		}
		idx = int32(len(e.slots))
		e.slots = append(e.slots, slot{fn: fn})
	}
	if e.seq == 1<<(64-idxBits) {
		panic("simclock: more than 2^40 events scheduled")
	}
	en = entry{at: at, key: e.seq<<idxBits | uint64(idx)}
	e.seq++
	return en, gen
}

// recycle returns a slot no entry refers to any more to the free list,
// invalidating outstanding Handles to it.
func (e *Engine) recycle(idx int32) {
	s := &e.slots[idx]
	s.gen++
	s.fn = nil
	e.free = append(e.free, idx)
}

// after is the total order on queue entries: (at, seq) ascending, by way
// of the packed key. seq is unique, so this is a strict total order — the
// firing sequence is fully determined no matter which data structure
// holds the entries.
func after(a, b *entry) bool {
	if a.at != b.at {
		return a.at > b.at
	}
	return a.key > b.key
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past panics: it always indicates a simulator bug, and silently
// clamping would hide causality violations.
func (e *Engine) At(at Time, fn Event) Handle {
	if at < e.now {
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", at, e.now))
	}
	en, gen := e.newEntry(at, fn)
	e.schedule(en)
	if live := e.nearCount + len(e.far) - e.cancelled; live > e.stats.MaxPending {
		e.stats.MaxPending = live
	}
	return Handle{eng: e, idx: en.idx(), gen: gen}
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d time.Duration, fn Event) Handle {
	return e.At(e.now+d, fn)
}

// schedule places a new entry into the correct band. This is the only
// place a width narrowing can trigger: insertNear is also called from
// redistribution loops (pullFar, rebase, resize), where a reentrant
// resize would corrupt the iteration in progress.
func (e *Engine) schedule(en entry) {
	if en.at < e.winStart {
		// The window was slid or reloaded past this instant while the
		// clock is still behind it (an idle peek jumped ahead, then a
		// near-term event arrived). Rebase the window down to cover it.
		e.rebase(en.at)
	}
	idx := uint64(en.at-e.winStart) >> e.shift
	if idx >= nb {
		e.farPush(en)
		e.stats.FarPushes++
		return
	}
	e.insertNear(en, int(idx))
	if e.crowded {
		e.crowded = false
		if e.shift > minShift {
			e.resize(e.shift - 2)
		}
	}
}

// insertNear stores an entry whose window offset is idx buckets ahead of
// cur. Future buckets take an O(1) append; the current, already-sorted
// bucket takes an ordered insert so consumption stays correct.
func (e *Engine) insertNear(en entry, idx int) {
	i := (e.cur + idx) & nbMask
	b := &e.buckets[i]
	e.nearCount++
	if len(b.items) == b.head {
		// Empty (or fully consumed) bucket: mark occupancy, append. One
		// entry is sorted, and a fully consumed bucket (head > 0) already
		// is.
		e.setOcc(i)
		b.items = append(b.items, en)
		b.sorted = true
		return
	}
	// Unsorted buckets take any entry at the tail, and so does a sorted
	// one when no stored entry orders after the new one (the common case:
	// the new entry has the latest seq).
	if !b.sorted || !after(&b.items[len(b.items)-1], &en) {
		b.items = append(b.items, en)
		return
	}
	lo := b.head
	j := lo + sort.Search(len(b.items)-lo, func(k int) bool {
		return after(&b.items[lo+k], &en)
	})
	b.items = append(b.items, entry{})
	copy(b.items[j+1:], b.items[j:])
	b.items[j] = en
	e.stats.MidInserts++
	if len(b.items)-b.head > crowdedBucket {
		e.crowded = true
	}
}

// setOcc / clearOcc maintain the non-empty-bucket bitmap.
func (e *Engine) setOcc(i int)   { e.occ[i>>6] |= 1 << uint(i&63) }
func (e *Engine) clearOcc(i int) { e.occ[i>>6] &^= 1 << uint(i&63) }

// nextOcc returns the ring distance from cur to the nearest populated
// bucket (0 when buckets[cur] itself is populated). Must only be called
// with nearCount > 0.
func (e *Engine) nextOcc() int {
	for d := 0; d < nb; {
		i := (e.cur + d) & nbMask
		w := e.occ[i>>6] >> uint(i&63)
		if w != 0 {
			return d + bits.TrailingZeros64(w)
		}
		// Skip the rest of this word.
		d += 64 - i&63
	}
	// Unreachable while the occupancy bitmap is consistent with
	// nearCount; fall back to the current bucket.
	return 0
}

// farPush adds an entry to the far-band min-heap.
func (e *Engine) farPush(en entry) {
	e.far = append(e.far, en)
	h := e.far
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !after(&h[p], &h[i]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// farPop removes and returns the far-band minimum.
func (e *Engine) farPop() entry {
	h := e.far
	en := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.far = h[:n]
	e.farSiftDown(0)
	return en
}

// farSiftDown restores the heap property downward from i.
func (e *Engine) farSiftDown(i int) {
	h := e.far
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && after(&h[l], &h[r]) {
			m = r
		}
		if !after(&h[i], &h[m]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pullFar migrates far-band events that now fall inside the window.
func (e *Engine) pullFar() {
	end := e.winEnd()
	for len(e.far) > 0 && e.far[0].at < end {
		en := e.farPop()
		e.insertNear(en, int(uint64(en.at-e.winStart)>>e.shift))
	}
}

// sortBucket orders items[head:] by (at, seq). Unsorted buckets always
// have head == 0. Small buckets use insertion sort; larger ones the
// library sort.
func (e *Engine) sortBucket(b *bucket) {
	s := b.items
	if len(s) <= sortInline {
		for i := 1; i < len(s); i++ {
			en := s[i]
			j := i - 1
			for j >= 0 && after(&s[j], &en) {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = en
		}
	} else {
		slices.SortFunc(s, func(a, b entry) int {
			if after(&b, &a) {
				return -1
			}
			return 1
		})
	}
	b.sorted = true
}

// settle positions the queue so the next live event sits at
// buckets[cur].items[head], sliding the window and migrating the far
// band as needed, and returns that event (ok false when none remain).
// Cancelled entries encountered on the way are reclaimed.
func (e *Engine) settle() (en entry, ok bool) {
	for {
		if e.nearCount == 0 {
			if len(e.far) == 0 {
				return entry{}, false
			}
			e.reload()
		}
		if d := e.nextOcc(); d > 0 {
			e.cur = (e.cur + d) & nbMask
			e.winStart += Time(d) << e.shift
			e.advances += uint64(d)
			e.pullFar()
		}
		b := &e.buckets[e.cur]
		for b.head < len(b.items) {
			if !b.sorted {
				e.sortBucket(b)
			}
			en := b.items[b.head]
			if !e.slots[en.idx()].cancelled {
				return en, true
			}
			b.head++
			e.nearCount--
			e.cancelled--
			e.recycle(en.idx())
		}
		// Bucket exhausted (everything in it was cancelled): reset it and
		// advance one slot.
		e.resetBucket(e.cur)
		e.cur = (e.cur + 1) & nbMask
		e.winStart += e.width()
		e.advances++
		e.pullFar()
	}
}

// resetBucket clears a consumed bucket for reuse, keeping its capacity.
func (e *Engine) resetBucket(i int) {
	b := &e.buckets[i]
	b.items = b.items[:0]
	b.head = 0
	b.sorted = false
	e.clearOcc(i)
}

// fire removes the settled head entry en from the current bucket,
// advances the clock to it and runs its callback. The slot is recycled
// before the callback runs, so the callback may schedule into it.
func (e *Engine) fire(en entry) {
	b := &e.buckets[e.cur]
	b.head++
	e.nearCount--
	e.pops++
	if b.head == len(b.items) {
		e.resetBucket(e.cur)
	}
	e.now = en.at
	e.fired++
	fn := e.slots[en.idx()].fn
	e.recycle(en.idx())
	fn(e.now)
}

// reload re-seeds an empty window at the next far-band event, applying
// width feedback from the window that just turned over: widen when the
// window was mostly empty advances (narrowing is triggered inline by
// schedule).
func (e *Engine) reload() {
	if e.pops > 0 && e.advances > sparseWindow*e.pops && e.shift < maxShift {
		e.shift += 2
		if e.shift > maxShift {
			e.shift = maxShift
		}
		e.stats.Resizes++
	}
	e.advances, e.pops = 0, 0
	e.cur = 0
	e.winStart = e.far[0].at
	e.stats.Reloads++
	e.pullFar()
}

// rebase slides the window start down to at (an event arrived behind the
// window while the clock still permits it), redistributing stored near
// events. Rare: it takes an idle window jump followed by a near-term
// schedule to get here.
func (e *Engine) rebase(at Time) {
	e.stats.Rebases++
	e.collectNear()
	e.cur = 0
	e.winStart = at
	e.redistribute()
}

// resize changes the bucket width to 1<<newShift, redistributing the
// near band in place. Correctness does not depend on the width — only
// the cost profile does — so resizing cannot affect firing order.
func (e *Engine) resize(newShift uint) {
	if newShift < minShift {
		newShift = minShift
	} else if newShift > maxShift {
		newShift = maxShift
	}
	if newShift == e.shift {
		return
	}
	e.stats.Resizes++
	e.collectNear()
	e.shift = newShift
	e.cur = 0
	e.redistribute()
	e.crowded = false
}

// collectNear drains every stored near entry into e.scratch and resets
// the ring. nearCount drops to zero; callers redistribute.
func (e *Engine) collectNear() {
	tmp := e.scratch[:0]
	for i := range e.buckets {
		b := &e.buckets[i]
		tmp = append(tmp, b.items[b.head:]...)
		if len(b.items) > 0 || b.head > 0 {
			e.resetBucket(i)
		}
	}
	e.scratch = tmp
	e.nearCount = 0
}

// redistribute reinserts the entries collectNear gathered under the
// current window start and width.
func (e *Engine) redistribute() {
	for _, en := range e.scratch {
		idx := uint64(en.at-e.winStart) >> e.shift
		if idx >= nb {
			e.farPush(en)
		} else {
			e.insertNear(en, int(idx))
		}
	}
	e.scratch = e.scratch[:0]
}

// maybeCompact rebuilds both bands without cancelled placeholders once
// they exceed half the queue. The (at, seq) total order is untouched by
// removal, so compaction cannot change the pop sequence of live events.
func (e *Engine) maybeCompact() {
	total := e.nearCount + len(e.far)
	if total < compactMinLen || e.cancelled*2 <= total {
		return
	}
	e.stats.Compactions++
	for i := range e.buckets {
		b := &e.buckets[i]
		if b.head == len(b.items) {
			continue
		}
		live := b.items[:0]
		for _, en := range b.items[b.head:] {
			if e.slots[en.idx()].cancelled {
				e.nearCount--
				e.recycle(en.idx())
			} else {
				live = append(live, en)
			}
		}
		b.items = live
		b.head = 0
		if len(live) == 0 {
			b.sorted = false
			e.clearOcc(i)
		}
	}
	liveFar := e.far[:0]
	for _, en := range e.far {
		if e.slots[en.idx()].cancelled {
			e.recycle(en.idx())
		} else {
			liveFar = append(liveFar, en)
		}
	}
	e.far = liveFar
	for i := len(e.far)/2 - 1; i >= 0; i-- {
		e.farSiftDown(i)
	}
	e.cancelled = 0
}

// Step fires the earliest pending event. It reports whether an event
// fired (false when the queue is empty).
func (e *Engine) Step() bool {
	en, ok := e.settle()
	if ok {
		e.fire(en)
	}
	return ok
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled at exactly the deadline fire.
func (e *Engine) RunUntil(deadline Time) {
	for {
		en, ok := e.settle()
		if !ok || en.at > deadline {
			break
		}
		e.fire(en)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor is RunUntil(Now()+d).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// RunBefore fires events with timestamps strictly below bound and stops,
// leaving the clock at the last fired event (it does NOT advance the
// idle clock to the bound — the caller owns the bound's meaning). This
// is the primitive the lookahead-sharded executor uses to advance a
// shard through one conservative window: every event below the horizon
// is safe to fire; the horizon itself is not.
func (e *Engine) RunBefore(bound Time) {
	for {
		en, ok := e.settle()
		if !ok || en.at >= bound {
			return
		}
		e.fire(en)
	}
}

// NextEventAt reports the timestamp of the next pending event, if any.
func (e *Engine) NextEventAt() (Time, bool) {
	en, ok := e.settle()
	return en.at, ok
}
