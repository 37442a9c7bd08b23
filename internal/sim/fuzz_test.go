package sim

import (
	"slices"
	"testing"
)

// checkHeapInvariants asserts the queue is a well-formed 4-ary min-heap
// whose slot back-pointers are consistent and whose membership matches the
// dense slot arrays: every queued entry owns a distinct live slot, and
// vacated slots are free-listed exactly once with their closure dropped.
func checkHeapInvariants(t *testing.T, e *Engine) {
	t.Helper()
	n := len(e.fns)
	if len(e.gens) != n || len(e.pos) != n {
		t.Fatalf("slot array lengths differ: fns %d, gens %d, pos %d",
			n, len(e.gens), len(e.pos))
	}
	live := 0
	for _, fn := range e.fns {
		if fn != nil {
			live++
		}
	}
	if len(e.queue) != live {
		t.Fatalf("queue has %d events, slot index has %d", len(e.queue), live)
	}
	for i, x := range e.queue {
		if int(x.slot) >= n {
			t.Fatalf("queued entry %d carries out-of-range slot %d", i, x.slot)
		}
		if e.fns[x.slot] == nil {
			t.Fatalf("queued entry %d holds free slot %d", i, x.slot)
		}
		if got := e.pos[x.slot]; int(got) != i {
			t.Fatalf("slot %d stores heap index %d at position %d", x.slot, got, i)
		}
		for c := arity*i + 1; c <= arity*i+arity && c < len(e.queue); c++ {
			if e.queue[c].before(x) {
				t.Fatalf("heap order violated between %d and child %d", i, c)
			}
		}
	}
	seen := make(map[uint32]bool, len(e.freeSlots))
	for _, s := range e.freeSlots {
		if int(s) >= n {
			t.Fatalf("free slot %d out of range", s)
		}
		if e.fns[s] != nil {
			t.Fatalf("free slot %d still holds a closure", s)
		}
		if seen[s] {
			t.Fatalf("slot %d free-listed twice", s)
		}
		seen[s] = true
	}
	if len(e.freeSlots)+live != n {
		t.Fatalf("%d free + %d live slots != %d total", len(e.freeSlots), live, n)
	}
}

// FuzzEventHeap drives an Engine through arbitrary schedule/cancel/run/step
// interleavings against a naive model, asserting that events fire in
// (timestamp, FIFO-at-same-instant) order, cancellation semantics hold
// (including stale Cancels of fired and freshly reused slots staying no-ops),
// and the heap plus the slot arrays stay structurally sound throughout.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 10})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 1, 0, 2, 255})
	f.Add([]byte{0, 1, 3, 0, 0, 0, 1, 1, 0, 2, 2, 4, 3, 0, 3, 0})
	f.Add([]byte{0, 200, 0, 100, 0, 100, 0, 0, 1, 2, 2, 150, 0, 50, 2, 255, 2, 255})
	// Exercise slot reuse: schedule, run (vacates slot), schedule again (reuses
	// slot under a new generation), then stale-cancel the fired event.
	f.Add([]byte{0, 1, 2, 2, 0, 1, 1, 0, 2, 255, 3, 0})
	// Deep heaps: dozens of schedules build three levels, so cancels land
	// mid-heap and the entry moved into the hole must sift up or down.
	for _, seed := range []struct{ n, stride, first, last byte }{
		{48, 37, 5, 0},
		{64, 101, 0, 1},
		{41, 53, 200, 3},
	} {
		f.Add(deepSeed(int(seed.n), seed.stride, seed.first, seed.last))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := NewEngine()
		type modelEvent struct {
			at    Time
			label int // scheduling order, the FIFO tie-break
			id    EventID
		}
		var (
			pending []modelEvent
			retired []EventID // IDs whose events fired or were cancelled
			fired   []int
			nextLab int
		)
		schedule := func(delta byte) {
			at := e.Now().Add(Duration(delta))
			label := nextLab
			nextLab++
			id := e.At(at, func() { fired = append(fired, label) })
			pending = append(pending, modelEvent{at: at, label: label, id: id})
		}
		expectUpTo := func(until Time) []int {
			var due []modelEvent
			rest := pending[:0:0]
			for _, ev := range pending {
				if ev.at <= until {
					due = append(due, ev)
				} else {
					rest = append(rest, ev)
				}
			}
			slices.SortStableFunc(due, func(a, b modelEvent) int {
				switch {
				case a.at != b.at:
					return int(a.at - b.at)
				default:
					return a.label - b.label
				}
			})
			pending = rest
			out := make([]int, len(due))
			for i, ev := range due {
				out[i] = ev.label
				retired = append(retired, ev.id)
			}
			return out
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%5, ops[i+1]
			switch op {
			case 0: // schedule arg ns from now
				schedule(arg)
			case 1: // cancel the arg-th pending event (twice: second is a no-op)
				if len(pending) == 0 {
					continue
				}
				k := int(arg) % len(pending)
				ev := pending[k]
				if !e.Cancel(ev.id) {
					t.Fatalf("Cancel(%d) of a pending event returned false", ev.id)
				}
				if e.Cancel(ev.id) {
					t.Fatalf("second Cancel(%d) returned true", ev.id)
				}
				retired = append(retired, ev.id)
				pending = append(pending[:k], pending[k+1:]...)
			case 2: // run to a horizon
				until := e.Now().Add(Duration(arg))
				want := expectUpTo(until)
				fired = fired[:0]
				e.Run(until)
				if !slices.Equal(fired, want) {
					t.Fatalf("Run(%v) fired %v, want %v", until, fired, want)
				}
			case 3: // single step
				want := []int(nil)
				if len(pending) > 0 {
					earliest := pending[0]
					for _, ev := range pending[1:] {
						if ev.at < earliest.at || (ev.at == earliest.at && ev.label < earliest.label) {
							earliest = ev
						}
					}
					want = append(want, earliest.label)
					for k, ev := range pending {
						if ev.id == earliest.id {
							retired = append(retired, ev.id)
							pending = append(pending[:k], pending[k+1:]...)
							break
						}
					}
				}
				fired = fired[:0]
				stepped := e.Step()
				if stepped != (len(want) > 0) {
					t.Fatalf("Step() = %v with %d pending", stepped, len(want))
				}
				if !slices.Equal(fired, want) {
					t.Fatalf("Step fired %v, want %v", fired, want)
				}
			case 4: // stale-cancel the arg-th retired ID: must be a safe no-op
				if len(retired) == 0 {
					continue
				}
				id := retired[int(arg)%len(retired)]
				before := e.Pending()
				if e.Cancel(id) {
					t.Fatalf("stale Cancel(%d) returned true", id)
				}
				if e.Pending() != before {
					t.Fatalf("stale Cancel(%d) changed Pending %d -> %d", id, before, e.Pending())
				}
			}
			if e.Pending() != len(pending) {
				t.Fatalf("Pending() = %d, model has %d", e.Pending(), len(pending))
			}
			checkHeapInvariants(t, e)
		}
	})
}

// deepSeed builds a fuzz input that schedules n events at scattered offsets
// (stride apart, mod 241), the last at offset last so it belongs near the
// root wherever a cancel moves it, then cancels a third of the pending
// events (model indices first, first+7, ...) and finally runs everything.
func deepSeed(n int, stride, first, last byte) []byte {
	var ops []byte
	for i := 0; i < n-1; i++ {
		ops = append(ops, 0, byte(10+(i*int(stride))%241))
	}
	ops = append(ops, 0, last)
	for k := 0; k < n/3; k++ {
		ops = append(ops, 1, first+byte(k*7))
	}
	return append(ops, 2, 255)
}
