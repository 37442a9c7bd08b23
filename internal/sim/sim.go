// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events: a
// 4-ary min-heap of plain (instant, sequence, slot) values, with each
// event's closure and lineage held in dense per-slot arrays. Events
// scheduled for the same instant fire in FIFO order of scheduling, which —
// combined with the deterministic prng package — makes whole simulation runs
// reproducible bit-for-bit.
//
// For single-run parallelism, a Coordinator (see sharded.go) drives several
// engines under a conservative time-window barrier; each engine remains a
// single-goroutine computation within its windows.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant on the simulated timeline, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds. It is layout- and
// unit-compatible with time.Duration so the usual constants compose.
type Duration = time.Duration

// Convenient calendar units for preservation timescales. A month is fixed at
// 30 days and a year at 365 days, matching the coarse calendar the paper's
// evaluation uses (3-month poll intervals, 30-day recuperation periods).
const (
	Millisecond Duration = time.Millisecond
	Second      Duration = time.Second
	Minute      Duration = time.Minute
	Hour        Duration = time.Hour
	Day         Duration = 24 * Hour
	Month       Duration = 30 * Day
	Year        Duration = 365 * Day
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Days returns t as floating-point days since simulation start.
func (t Time) Days() float64 { return float64(t) / float64(Day) }

// String formats the instant as days and a wall-clock remainder, which reads
// well on multi-month preservation timelines.
func (t Time) String() string {
	d := int64(t) / int64(Day)
	rem := Duration(int64(t) % int64(Day))
	return fmt.Sprintf("d%d+%v", d, rem)
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is never issued. An ID packs a slot index (low 32 bits, biased by
// one so the zero ID stays invalid) and a per-slot generation tag (high 32
// bits); a slot's generation bumps every time it is vacated, so a stale
// Cancel of a fired or already-cancelled event is a cheap, safe no-op.
type EventID uint64

// entry is one pending event in the queue: its firing instant, its FIFO
// tie-break and the slot holding its closure and lineage. Entries are plain
// values, so the queue holds no pointers for the collector to scan and a
// comparison reads only the queue's own memory.
type entry struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant; unique
	slot uint32
}

// before reports whether a fires before b.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// arity is the queue's branching factor. A 4-ary heap is half as deep as a
// binary one and its four children sit in adjacent entries, so a sift costs
// a few more comparisons per level but touches fewer cache lines on the deep
// queues of large runs. Order at equal instants comes from seq, which is
// unique, so the arity never changes which event fires next.
const arity = 4

// Engine is a discrete-event simulation engine. It is not safe for concurrent
// use; a simulation is a single-goroutine computation by design, which is
// what makes runs deterministic.
type Engine struct {
	now Time
	// queue is a 4-ary min-heap of pending events ordered by (at, seq).
	queue   []entry
	nextSeq uint64
	// Dense per-slot state, indexed by the slot an EventID carries: the
	// event's closure (nil when the slot is free), its lineage, the slot's
	// current generation and the entry's index in queue. A map was measured
	// to dominate schedule/cancel costs at large populations; the dense
	// arrays make both O(1) with no hashing, and a vacated slot is reused
	// under a new generation, so a long run allocates only up to its peak
	// number of pending events.
	fns       []func()
	lineages  []uint64
	gens      []uint32
	pos       []int32
	freeSlots []uint32
	stopped   bool

	// Lineage is a causal-order tag used by sharded execution: events
	// created while another event runs inherit that event's lineage, and
	// cross-shard deliveries are stamped with a fresh globally-monotone
	// value in canonical drain order. Single-engine runs carry it at no
	// behavioral cost. curLineage is the lineage of the currently executing
	// event; inEvent distinguishes execution-time scheduling (inherit) from
	// build-time scheduling (draw fresh from the shared counter, when one is
	// attached).
	curLineage uint64
	inEvent    bool
	lineageCtr *uint64

	// Executed counts events that have fired, for progress reporting and
	// engine benchmarks.
	Executed uint64

	// Progress, when non-nil, is called every progressStride executed events
	// with the current clock and total executed count. Used for coarse
	// observability of long runs; the stride keeps it off the hot path.
	Progress       func(now Time, executed uint64)
	progressStride uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// SetLineageSource attaches a shared counter used to stamp events scheduled
// outside event execution (world construction). Engines sharing one counter
// give build-time events globally ordered lineage tags.
func (e *Engine) SetLineageSource(ctr *uint64) { e.lineageCtr = ctr }

// SetProgress installs a progress callback invoked every stride executed
// events. A nil fn or non-positive stride disables reporting.
func (e *Engine) SetProgress(stride uint64, fn func(now Time, executed uint64)) {
	if fn == nil || stride == 0 {
		e.Progress = nil
		e.progressStride = 0
		return
	}
	e.Progress = fn
	e.progressStride = stride
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// CurLineage returns the lineage tag of the currently executing event (zero
// outside execution or on engines without lineage tracking).
func (e *Engine) CurLineage() uint64 { return e.curLineage }

// At schedules fn to run at instant t. Scheduling in the past (before Now)
// panics: it always indicates a logic error in a discrete-event model.
func (e *Engine) At(t Time, fn func()) EventID {
	lin := e.curLineage
	if !e.inEvent && e.lineageCtr != nil {
		*e.lineageCtr++
		lin = *e.lineageCtr
	}
	return e.AtLineage(t, lin, fn)
}

// AtLineage schedules fn at instant t with an explicit lineage tag. It is
// the scheduling entry point used by the cross-shard drain, which stamps
// deliveries in canonical order.
func (e *Engine) AtLineage(t Time, lineage uint64, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e.nextSeq++
	var slot uint32
	if n := len(e.freeSlots); n > 0 {
		slot = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		e.fns[slot] = fn
		e.lineages[slot] = lineage
	} else {
		slot = uint32(len(e.fns))
		e.fns = append(e.fns, fn)
		e.lineages = append(e.lineages, lineage)
		e.gens = append(e.gens, 0)
		e.pos = append(e.pos, 0)
	}
	e.queue = append(e.queue, entry{at: t, seq: e.nextSeq, slot: slot})
	e.up(len(e.queue) - 1)
	return EventID(e.gens[slot])<<32 | EventID(slot+1)
}

// vacate frees slot and bumps its generation so no ID issued for it can
// resolve again. Dropping the closure keeps the slot from pinning captured
// state.
func (e *Engine) vacate(slot uint32) {
	e.gens[slot]++
	e.fns[slot] = nil
	e.freeSlots = append(e.freeSlots, slot)
}

// up moves the entry at index i toward the root until its parent fires
// before it.
func (e *Engine) up(i int) {
	q := e.queue
	x := q[i]
	for i > 0 {
		p := (i - 1) / arity
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		e.pos[q[i].slot] = int32(i)
		i = p
	}
	q[i] = x
	e.pos[x.slot] = int32(i)
}

// down moves the entry at index i toward the leaves until it fires before
// all of its children, and reports whether it moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	n := len(q)
	x := q[i]
	i0 := i
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+arity, n); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(x) {
			break
		}
		q[i] = q[m]
		e.pos[q[i].slot] = int32(i)
		i = m
	}
	q[i] = x
	e.pos[x.slot] = int32(i)
	return i > i0
}

// remove deletes the entry at index i, moving the last entry into its place
// and restoring heap order around it.
func (e *Engine) remove(i int) {
	last := len(e.queue) - 1
	moved := e.queue[last]
	e.queue = e.queue[:last]
	if i == last {
		return
	}
	e.queue[i] = moved
	if !e.down(i) {
		e.up(i)
	}
}

// After schedules fn to run d after the current instant. Negative durations
// are treated as zero.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// lookup resolves a live event's slot by ID; ok is false for stale or
// invalid IDs.
func (e *Engine) lookup(id EventID) (slot uint32, ok bool) {
	slot = uint32(id)
	if slot == 0 {
		return 0, false
	}
	slot--
	if int(slot) >= len(e.gens) || e.gens[slot] != uint32(id>>32) {
		return 0, false
	}
	return slot, true
}

// Cancel removes a pending event. Cancelling an event that already fired or
// was already cancelled is a no-op and returns false.
func (e *Engine) Cancel(id EventID) bool {
	slot, ok := e.lookup(id)
	if !ok {
		return false
	}
	e.remove(int(e.pos[slot]))
	e.vacate(slot)
	return true
}

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// fire pops the root event, advances the clock and runs it.
func (e *Engine) fire() {
	top := e.queue[0]
	e.remove(0)
	// Vacate before firing: fn may schedule (and reuse the slot), which is
	// safe because the slot is not touched afterwards.
	fn := e.fns[top.slot]
	lin := e.lineages[top.slot]
	e.vacate(top.slot)
	e.now = top.at
	e.inEvent = true
	e.curLineage = lin
	fn()
	e.inEvent = false
	e.curLineage = 0
	e.Executed++
	if e.Progress != nil && e.Executed%e.progressStride == 0 {
		e.Progress(e.now, e.Executed)
	}
}

// Run executes events in timestamp order until the queue is empty or the
// clock would pass `until`. Events scheduled exactly at `until` do fire.
// It returns the number of events executed by this call.
func (e *Engine) Run(until Time) uint64 {
	e.stopped = false
	var n uint64
	for len(e.queue) > 0 && !e.stopped && e.queue[0].at <= until {
		e.fire()
		n++
	}
	// Advance the clock to the horizon even if the queue drained early, so
	// time-integrated metrics cover the full window.
	if !e.stopped && e.now < until {
		e.now = until
	}
	return n
}

// RunBefore executes pending events with timestamps strictly before w and
// returns the number executed. Unlike Run it leaves the clock at the last
// executed event rather than advancing it to the boundary: the caller (the
// shard coordinator) owns horizon bookkeeping. Stop applies as in Run.
func (e *Engine) RunBefore(w Time) uint64 {
	e.stopped = false
	var n uint64
	for len(e.queue) > 0 && !e.stopped && e.queue[0].at < w {
		e.fire()
		n++
	}
	return n
}

// AdvanceTo moves the clock forward to t without executing anything. Moving
// backward is a no-op. Used by the coordinator to align shard clocks at the
// end of a run.
func (e *Engine) AdvanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// Next returns the timestamp of the earliest pending event.
func (e *Engine) Next() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Step executes exactly one event if any is pending and returns whether one
// fired. Useful in unit tests that walk a state machine event by event.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fire()
	return true
}

// Ticker invokes fn every period until the returned stop function is called.
// The first tick fires one period from now. The period may be jittered by the
// caller between invocations by returning a new period from fn; returning 0
// keeps the current period, returning a negative duration stops the ticker.
type Ticker struct {
	engine *Engine
	id     EventID
	done   bool
}

// NewTicker schedules fn every period. fn may return a replacement period
// (0 keeps the period, negative stops).
func (e *Engine) NewTicker(period Duration, fn func() Duration) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{engine: e}
	var tick func()
	current := period
	tick = func() {
		if t.done {
			return
		}
		next := fn()
		if next < 0 {
			t.done = true
			return
		}
		if next > 0 {
			current = next
		}
		if !t.done {
			t.id = e.After(current, tick)
		}
	}
	t.id = e.After(current, tick)
	return t
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	if !t.done {
		t.done = true
		t.engine.Cancel(t.id)
	}
}
