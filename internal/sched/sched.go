// Package sched implements a peer's task schedule of promises to perform
// effort — computing votes for others and running its own polls.
//
// The schedule is the over-commitment defense of §5.1 of the paper: "peers
// maintain a task schedule of their promises to perform effort ... If the
// effort of computing the vote solicited by an incoming Poll message cannot
// be accommodated in the schedule, the invitation is refused."
//
// Time is abstract int64 nanoseconds so the same scheduler serves the
// discrete-event simulator (virtual time) and the real node (wall time).
package sched

import (
	"fmt"
	"sort"
	"time"
)

// Time mirrors sim.Time without importing it, keeping sched reusable by the
// real node. Values are nanoseconds since an arbitrary epoch.
type Time int64

// Duration is a span in nanoseconds; aliasing time.Duration keeps protocol
// configuration interoperable with both the simulator's clock and the real
// node's wall clock.
type Duration = time.Duration

// TaskID identifies a reservation. The zero TaskID is never issued.
type TaskID uint64

// Task is a committed interval of compute on the peer's single audit
// resource.
type Task struct {
	ID    TaskID
	Start Time
	End   Time
	// Label describes the commitment ("vote au=3 poll=17", "eval au=3").
	Label string
}

// Schedule tracks non-overlapping committed intervals plus an optional
// background load hook. It is not safe for concurrent use.
type Schedule struct {
	tasks  []Task // sorted by Start, non-overlapping
	nextID TaskID

	// Background, if non-nil, supplies extra busy intervals owed to lower
	// simulation layers (the paper's 600-AU layering, §6.3). Slot search
	// treats them as busy; explicit reservations ignore them.
	Background Background

	// CommittedTotal accumulates the total committed duration ever
	// reserved, for utilization metrics.
	CommittedTotal Duration
	// CommittedCount counts reservations ever made.
	CommittedCount uint64
}

// Background is a pull source of busy intervals. Every query over a window
// [from, to) starts a fresh stream at BgCursor{From: from, To: to} and calls
// Next until ok is false or the query has its answer, so a slot search that
// fits in the first gap never generates the rest of the window.
//
// The stream's contract:
//   - intervals come in non-decreasing Start order;
//   - they may overlap one another (the schedule coalesces them);
//   - each overlaps [From, To);
//   - the source decides where visibility begins: an interval that started
//     before From may be omitted (the layering load shows only intervals from
//     From's day bucket onward), and the schedule sees exactly what is
//     yielded.
type Background interface {
	// Next returns the interval at cursor c and the cursor just past it; ok
	// is false once the stream is exhausted.
	Next(c BgCursor) (t Task, next BgCursor, ok bool)
}

// BgCursor is a position in one query's stream of background intervals. It
// is a plain value so a query allocates nothing. From and To are the query
// window; Bucket and Index are the source's own position, both zero at the
// start of a stream.
type BgCursor struct {
	From, To Time
	Bucket   int64
	Index    int
}

// timeline merges the live reservations that end after a query's start with
// the query's background stream, yielding intervals in Start order. Both
// inputs are already start-sorted, so this is a streaming two-way merge.
type timeline struct {
	tasks []Task
	bg    Background
	c     BgCursor
	head  Task // the background interval pending merge, valid when ok
	ok    bool
}

// timeline starts the merged stream for the window [from, to).
func (s *Schedule) timeline(from, to Time) timeline {
	// Live reservations are disjoint and start-sorted, so their Ends ascend
	// too: one search skips every reservation that ended by from.
	i := sort.Search(len(s.tasks), func(i int) bool { return s.tasks[i].End > from })
	tl := timeline{tasks: s.tasks[i:], bg: s.Background}
	if tl.bg != nil {
		tl.head, tl.c, tl.ok = tl.bg.Next(BgCursor{From: from, To: to})
	}
	return tl
}

// next returns the interval that starts first among the two sources.
func (tl *timeline) next() (Task, bool) {
	if len(tl.tasks) > 0 && (!tl.ok || tl.tasks[0].Start <= tl.head.Start) {
		t := tl.tasks[0]
		tl.tasks = tl.tasks[1:]
		return t, true
	}
	if !tl.ok {
		return Task{}, false
	}
	t := tl.head
	tl.head, tl.c, tl.ok = tl.bg.Next(tl.c)
	return t, true
}

// New returns an empty schedule.
func New() *Schedule { return &Schedule{} }

// Len returns the number of live reservations.
func (s *Schedule) Len() int { return len(s.tasks) }

// Tasks returns a copy of the live reservations in start order.
func (s *Schedule) Tasks() []Task {
	out := make([]Task, len(s.tasks))
	copy(out, s.tasks)
	return out
}

// GC drops reservations that ended at or before now. Call periodically (the
// peer does, on poll boundaries) to keep the schedule small.
func (s *Schedule) GC(now Time) {
	i := 0
	for i < len(s.tasks) && s.tasks[i].End <= now {
		i++
	}
	if i > 0 {
		s.tasks = append(s.tasks[:0], s.tasks[i:]...)
	}
}

// FindSlot returns the earliest start >= earliest such that a task of length
// d fits entirely before deadline, honoring existing commitments and
// background load. ok is false if no slot exists.
func (s *Schedule) FindSlot(earliest Time, d Duration, deadline Time) (start Time, ok bool) {
	if d <= 0 {
		return earliest, true
	}
	if earliest+Time(d) > deadline {
		return 0, false
	}
	// The greedy walk yields the earliest fit whether or not the intervals
	// overlap: every interval it has passed ends at or before cur, and cur
	// only advances past an interval that blocks [cur, cur+d).
	cur := earliest
	tl := s.timeline(earliest, deadline)
	for {
		t, ok := tl.next()
		if !ok || t.Start >= cur+Time(d) {
			return cur, true // the gap before t (or the open tail) fits
		}
		if t.End > cur {
			cur = t.End
			if cur+Time(d) > deadline {
				return 0, false
			}
		}
	}
}

// Reserve commits [start, start+d) with the given label. It fails if the
// interval overlaps an existing commitment (background load is advisory for
// slot search but does not block explicit reservations, mirroring the
// layering technique's one-way coupling).
func (s *Schedule) Reserve(start Time, d Duration, label string) (TaskID, error) {
	if d <= 0 {
		return 0, fmt.Errorf("sched: non-positive duration %d", d)
	}
	end := start + Time(d)
	idx := sort.Search(len(s.tasks), func(i int) bool { return s.tasks[i].Start >= start })
	if idx > 0 && s.tasks[idx-1].End > start {
		return 0, fmt.Errorf("sched: %q overlaps %q", label, s.tasks[idx-1].Label)
	}
	if idx < len(s.tasks) && s.tasks[idx].Start < end {
		return 0, fmt.Errorf("sched: %q overlaps %q", label, s.tasks[idx].Label)
	}
	s.nextID++
	t := Task{ID: s.nextID, Start: start, End: end, Label: label}
	s.tasks = append(s.tasks, Task{})
	copy(s.tasks[idx+1:], s.tasks[idx:])
	s.tasks[idx] = t
	s.CommittedTotal += Duration(d)
	s.CommittedCount++
	return t.ID, nil
}

// ReserveSlot finds a slot and reserves it in one step.
func (s *Schedule) ReserveSlot(earliest Time, d Duration, deadline Time, label string) (TaskID, Time, bool) {
	start, ok := s.FindSlot(earliest, d, deadline)
	if !ok {
		return 0, 0, false
	}
	id, err := s.Reserve(start, d, label)
	if err != nil {
		// FindSlot guarantees no overlap with commitments; an error here is
		// a programming bug worth failing loudly on.
		panic(err)
	}
	return id, start, true
}

// Release cancels a reservation (a deserting poller's slot, for example).
// Releasing an unknown ID is a no-op returning false.
func (s *Schedule) Release(id TaskID) bool {
	for i, t := range s.tasks {
		if t.ID == id {
			s.CommittedTotal -= Duration(t.End - t.Start)
			s.tasks = append(s.tasks[:i], s.tasks[i+1:]...)
			return true
		}
	}
	return false
}

// BusyFraction reports the fraction of [from, to) covered by commitments and
// background load.
func (s *Schedule) BusyFraction(from, to Time) float64 {
	if to <= from {
		return 0
	}
	// Coalesce on the fly: [lo, hi) is the current busy run, clipped to the
	// window, and is counted once the next interval starts past it.
	var busy Duration
	lo, hi := from, from
	tl := s.timeline(from, to)
	for {
		t, ok := tl.next()
		if !ok || t.Start >= to {
			break
		}
		if t.Start > hi {
			busy += Duration(hi - lo)
			lo, hi = t.Start, t.Start
		}
		if t.End > hi {
			hi = min(t.End, to)
		}
	}
	busy += Duration(hi - lo)
	return float64(busy) / float64(to-from)
}

// Validate checks the internal invariant (sorted, non-overlapping) and
// returns an error describing the first violation. Property tests call it.
func (s *Schedule) Validate() error {
	for i := 1; i < len(s.tasks); i++ {
		a, b := s.tasks[i-1], s.tasks[i]
		if b.Start < a.Start {
			return fmt.Errorf("sched: tasks out of order at %d", i)
		}
		if b.Start < a.End {
			return fmt.Errorf("sched: %q overlaps %q", b.Label, a.Label)
		}
	}
	for _, t := range s.tasks {
		if t.End <= t.Start {
			return fmt.Errorf("sched: empty task %q", t.Label)
		}
	}
	return nil
}
