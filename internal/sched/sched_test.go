package sched

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"lockss/internal/prng"
)

func TestReserveAndFind(t *testing.T) {
	s := New()
	// Reserve [100, 200).
	id, err := s.Reserve(100, 100, "a")
	if err != nil || id == 0 {
		t.Fatalf("Reserve: %v", err)
	}
	// A 50-long task from 0 fits before it.
	start, ok := s.FindSlot(0, 50, 1000)
	if !ok || start != 0 {
		t.Errorf("FindSlot = %v,%v; want 0,true", start, ok)
	}
	// A 150-long task from 0 must go after [100,200).
	start, ok = s.FindSlot(0, 150, 1000)
	if !ok || start != 200 {
		t.Errorf("FindSlot(150) = %v,%v; want 200,true", start, ok)
	}
	// No room before deadline 300 for a 150-long task starting at 90.
	_, ok = s.FindSlot(90, 150, 300)
	if ok {
		t.Error("FindSlot should fail when nothing fits before the deadline")
	}
}

func TestReserveOverlapFails(t *testing.T) {
	s := New()
	if _, err := s.Reserve(100, 100, "a"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ start, d Time }{
		{50, 100}, {150, 10}, {199, 5}, {100, 100}, {0, 101},
	} {
		if _, err := s.Reserve(c.start, Duration(c.d), "x"); err == nil {
			t.Errorf("Reserve(%d,%d) should overlap", c.start, c.d)
		}
	}
	// Adjacent intervals are fine.
	if _, err := s.Reserve(200, 50, "after"); err != nil {
		t.Errorf("adjacent reserve failed: %v", err)
	}
	if _, err := s.Reserve(0, 100, "before"); err != nil {
		t.Errorf("adjacent reserve failed: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRelease(t *testing.T) {
	s := New()
	id, _ := s.Reserve(100, 100, "a")
	if !s.Release(id) {
		t.Error("Release returned false")
	}
	if s.Release(id) {
		t.Error("double Release returned true")
	}
	if _, err := s.Reserve(100, 100, "b"); err != nil {
		t.Errorf("slot not freed: %v", err)
	}
}

func TestGC(t *testing.T) {
	s := New()
	s.Reserve(0, 10, "old")
	s.Reserve(20, 10, "mid")
	s.Reserve(100, 10, "new")
	s.GC(50)
	if s.Len() != 1 {
		t.Errorf("GC left %d tasks, want 1", s.Len())
	}
	if s.Tasks()[0].Label != "new" {
		t.Errorf("wrong survivor: %v", s.Tasks()[0].Label)
	}
}

func TestBusyFraction(t *testing.T) {
	s := New()
	s.Reserve(0, 50, "a")
	s.Reserve(100, 50, "b")
	if f := s.BusyFraction(0, 200); f != 0.5 {
		t.Errorf("BusyFraction = %v, want 0.5", f)
	}
	if f := s.BusyFraction(0, 50); f != 1.0 {
		t.Errorf("BusyFraction = %v, want 1", f)
	}
	if f := s.BusyFraction(50, 100); f != 0 {
		t.Errorf("BusyFraction = %v, want 0", f)
	}
}

// bucketBG is a Background in the layering load's shape: intervals grouped
// into fixed-width buckets by start, each bucket start-sorted, and a window
// sees only the buckets from its From's onward, so an interval from an
// earlier bucket that straddles From stays invisible. Intervals may overlap.
type bucketBG struct {
	width   Time
	buckets [][]Task
}

// oneBucket is a bucketBG whose single bucket holds ts, so every window
// starting before 1<<62 sees all of ts that overlaps it.
func oneBucket(ts ...Task) *bucketBG {
	return &bucketBG{width: 1 << 62, buckets: [][]Task{ts}}
}

func (b *bucketBG) Next(c BgCursor) (Task, BgCursor, bool) {
	for k := int64(c.From/b.width) + c.Bucket; k < int64(len(b.buckets)); k++ {
		ts := b.buckets[k]
		for c.Index < len(ts) {
			t := ts[c.Index]
			c.Index++
			if t.Start >= c.To {
				return Task{}, c, false
			}
			if t.End > c.From {
				return t, c, true
			}
		}
		c.Bucket++
		c.Index = 0
	}
	return Task{}, c, false
}

func TestBackgroundLoad(t *testing.T) {
	s := New()
	s.Background = oneBucket(Task{Start: 0, End: 1000, Label: "bg"}) // permanently busy [0, 1000)
	start, ok := s.FindSlot(0, 10, 2000)
	if !ok || start != 1000 {
		t.Errorf("FindSlot with background = %v,%v; want 1000,true", start, ok)
	}
	// Background does not block explicit reservation (advisory only).
	if _, err := s.Reserve(500, 10, "forced"); err != nil {
		t.Errorf("background blocked explicit reserve: %v", err)
	}
	if f := s.BusyFraction(0, 1000); f != 1.0 {
		t.Errorf("BusyFraction with background = %v", f)
	}

	// Start-ordered background intervals that overlap each other and a
	// commitment, as the layering load's exponential durations produce:
	// the busy timeline is their union.
	s = New()
	s.Background = oneBucket(
		Task{Start: 100, End: 400}, // swallows the next one
		Task{Start: 150, End: 250},
		Task{Start: 300, End: 500}, // overlaps the first
		Task{Start: 700, End: 760},
		Task{Start: 720, End: 800},
	)
	if _, err := s.Reserve(480, 70, "c"); err != nil { // [480, 550) straddles [300, 500)
		t.Fatal(err)
	}
	for _, c := range []struct {
		earliest  Time
		d         Duration
		deadline  Time
		want      Time
		wantFound bool
	}{
		{0, 100, 2000, 0, true},    // fits before everything
		{0, 101, 2000, 550, true},  // [100, 550) is one busy run
		{200, 10, 2000, 550, true}, // inside the nested interval
		{560, 140, 2000, 560, true},
		{560, 141, 2000, 800, true},
		{560, 141, 941, 800, true},
		{560, 141, 940, 0, false},
	} {
		got, ok := s.FindSlot(c.earliest, c.d, c.deadline)
		if ok != c.wantFound || got != c.want {
			t.Errorf("FindSlot(%d, %d, %d) = %d,%v; want %d,%v",
				c.earliest, c.d, c.deadline, got, ok, c.want, c.wantFound)
		}
	}
	// Busy: [100, 550) and [700, 800) = 550 of 1000.
	if f := s.BusyFraction(0, 1000); f != 0.55 {
		t.Errorf("BusyFraction = %v, want 0.55", f)
	}
	// Clipped window [200, 750): [200, 550) and [700, 750) = 400 of 550.
	if f, want := s.BusyFraction(200, 750), 400.0/550; f != want {
		t.Errorf("BusyFraction(200, 750) = %v, want %v", f, want)
	}
}

func TestFindSlotZeroDuration(t *testing.T) {
	s := New()
	start, ok := s.FindSlot(42, 0, 100)
	if !ok || start != 42 {
		t.Errorf("zero-duration slot = %v,%v", start, ok)
	}
}

func TestReserveSlot(t *testing.T) {
	s := New()
	s.Reserve(0, 100, "head")
	id, start, ok := s.ReserveSlot(0, 50, 1000, "tail")
	if !ok || start != 100 || id == 0 {
		t.Errorf("ReserveSlot = %v,%v,%v", id, start, ok)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

// TestPropertyRandomOps drives random reserve/release/gc operations and
// checks the schedule invariant plus non-overlap of found slots.
func TestPropertyRandomOps(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := prng.New(seed)
		s := New()
		var live []TaskID
		now := Time(0)
		for op := 0; op < 300; op++ {
			switch r.Intn(5) {
			case 0, 1: // reserve via FindSlot
				d := Duration(r.Intn(100) + 1)
				deadline := now + Time(r.Intn(5000)+200)
				if id, start, ok := s.ReserveSlot(now, d, deadline, "t"); ok {
					if start < now || start+Time(d) > deadline {
						return false
					}
					live = append(live, id)
				}
			case 2: // direct reserve at a random spot (may fail)
				start := now + Time(r.Intn(2000))
				if id, err := s.Reserve(start, Duration(r.Intn(50)+1), "d"); err == nil {
					live = append(live, id)
				}
			case 3: // release random
				if len(live) > 0 {
					i := r.Intn(len(live))
					s.Release(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 4: // advance time and GC
				now += Time(r.Intn(200))
				s.GC(now)
			}
			if err := s.Validate(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyFindSlotRespectsCommitments: a found slot never overlaps an
// existing commitment.
func TestPropertyFindSlotRespectsCommitments(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := prng.New(seed)
		s := New()
		type iv struct{ lo, hi Time }
		var ivs []iv
		for i := 0; i < 30; i++ {
			start := Time(r.Intn(3000))
			d := Duration(r.Intn(80) + 1)
			if _, err := s.Reserve(start, d, "x"); err == nil {
				ivs = append(ivs, iv{start, start + Time(d)})
			}
		}
		for q := 0; q < 50; q++ {
			earliest := Time(r.Intn(3000))
			d := Duration(r.Intn(120) + 1)
			deadline := earliest + Time(r.Intn(3000)+1)
			start, ok := s.FindSlot(earliest, d, deadline)
			if !ok {
				continue
			}
			end := start + Time(d)
			if start < earliest || end > deadline {
				return false
			}
			for _, v := range ivs {
				if start < v.hi && v.lo < end {
					return false // overlap
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestCommittedAccounting(t *testing.T) {
	s := New()
	s.Reserve(0, 10, "a")
	s.Reserve(20, 30, "b")
	if s.CommittedTotal != 40 || s.CommittedCount != 2 {
		t.Errorf("accounting: total=%v count=%v", s.CommittedTotal, s.CommittedCount)
	}
	id, _ := s.Reserve(100, 5, "c")
	s.Release(id)
	if s.CommittedTotal != 40 {
		t.Errorf("release should refund total, got %v", s.CommittedTotal)
	}
}

// refUnion is the reference busy timeline: copy the live reservations and
// every background interval the window shows, sort by start, coalesce.
func refUnion(s *Schedule, from, to Time) []Task {
	all := s.Tasks()
	if s.Background != nil {
		c := BgCursor{From: from, To: to}
		for {
			t, next, ok := s.Background.Next(c)
			if !ok {
				break
			}
			all = append(all, t)
			c = next
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	var out []Task
	for _, t := range all {
		if n := len(out); n > 0 && t.Start <= out[n-1].End {
			out[n-1].End = max(out[n-1].End, t.End)
			continue
		}
		out = append(out, t)
	}
	return out
}

// refFindSlot walks the reference union for the earliest fit.
func refFindSlot(s *Schedule, earliest Time, d Duration, deadline Time) (Time, bool) {
	if d <= 0 {
		return earliest, true
	}
	cur := earliest
	for _, t := range refUnion(s, earliest, deadline) {
		if t.End <= cur {
			continue
		}
		if t.Start >= cur+Time(d) {
			break
		}
		cur = t.End
	}
	if cur+Time(d) > deadline {
		return 0, false
	}
	return cur, true
}

// refBusyFraction sums the reference union clipped to [from, to).
func refBusyFraction(s *Schedule, from, to Time) float64 {
	if to <= from {
		return 0
	}
	var busy Duration
	for _, t := range refUnion(s, from, to) {
		lo, hi := max(t.Start, from), min(t.End, to)
		if hi > lo {
			busy += Duration(hi - lo)
		}
	}
	return float64(busy) / float64(to-from)
}

// randomSchedule builds a schedule of random disjoint reservations over
// [0, span) and, when nBg > 0, a bucketed background load of nBg random
// start-ordered intervals whose durations reach several bucket widths, so
// they overlap one another, the reservations and bucket boundaries.
func randomSchedule(r *prng.Source, nRes, nBg int, span, width Time) *Schedule {
	s := New()
	for i := 0; i < nRes; i++ {
		s.Reserve(Time(r.Int63n(int64(span))), Duration(r.Int63n(int64(span)/20)+1), "r")
	}
	if nBg == 0 {
		return s
	}
	starts := make([]Time, nBg)
	for i := range starts {
		starts[i] = Time(r.Int63n(int64(span)))
	}
	slices.Sort(starts)
	bg := &bucketBG{width: width, buckets: make([][]Task, span/width+1)}
	for _, st := range starts {
		k := st / width
		end := st + Time(r.Int63n(int64(3*width))+1)
		bg.buckets[k] = append(bg.buckets[k], Task{Start: st, End: end, Label: "bg"})
	}
	s.Background = bg
	return s
}

// FuzzFindSlotUnion checks the streaming merge against the reference
// copy-sort-coalesce union on random reservations and random overlapping
// background load, for FindSlot and BusyFraction over random windows.
func FuzzFindSlotUnion(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(40), uint16(100))
	f.Add(uint64(2), uint8(0), uint8(80), uint16(7))
	f.Add(uint64(3), uint8(60), uint8(0), uint16(1))
	f.Add(uint64(4), uint8(200), uint8(200), uint16(500))
	f.Fuzz(func(t *testing.T, seed uint64, nRes, nBg uint8, width uint16) {
		const span = 3000
		r := prng.New(seed)
		s := randomSchedule(r, int(nRes), int(nBg), span, Time(width%span)+1)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 64; q++ {
			earliest := Time(r.Intn(span + 200))
			d := Duration(r.Intn(300))
			deadline := earliest + Time(r.Intn(span))
			got, ok := s.FindSlot(earliest, d, deadline)
			want, wantOK := refFindSlot(s, earliest, d, deadline)
			if got != want || ok != wantOK {
				t.Fatalf("FindSlot(%d, %d, %d) = %d,%v; reference %d,%v",
					earliest, d, deadline, got, ok, want, wantOK)
			}
			if f, want := s.BusyFraction(earliest, deadline), refBusyFraction(s, earliest, deadline); f != want {
				t.Fatalf("BusyFraction(%d, %d) = %v; reference %v", earliest, deadline, f, want)
			}
		}
	})
}

// TestSlotSearchAllocs pins the streaming merge at zero allocations per
// query, with and without a background load.
func TestSlotSearchAllocs(t *testing.T) {
	for _, nBg := range []int{0, 100} {
		s := randomSchedule(prng.New(5), 50, nBg, 3000, 100)
		if n := testing.AllocsPerRun(100, func() { s.FindSlot(500, 40, 2500) }); n != 0 {
			t.Errorf("FindSlot with %d background intervals: %v allocs/op, want 0", nBg, n)
		}
		if n := testing.AllocsPerRun(100, func() { s.BusyFraction(500, 2500) }); n != 0 {
			t.Errorf("BusyFraction with %d background intervals: %v allocs/op, want 0", nBg, n)
		}
	}
}

// BenchmarkFindSlotBackground measures one vote-slot search the way a
// layered run issues it: 300 reservations of up to an hour spread over 30
// days (half of them stale, as between GC passes), a background load of 8
// exponential one-hour tasks per day bucket, and a 7-day window starting
// mid-run.
func BenchmarkFindSlotBackground(b *testing.B) {
	const day = Time(24 * time.Hour)
	r := prng.New(12)
	s := New()
	for s.Len() < 300 {
		s.Reserve(Time(r.Int63n(int64(30*day))), Duration(r.Int63n(int64(time.Hour))+1), "r")
	}
	bg := &bucketBG{width: day, buckets: make([][]Task, 30)}
	for k := range bg.buckets {
		starts := make([]Time, 8)
		for i := range starts {
			starts[i] = Time(k)*day + Time(r.Int63n(int64(day)))
		}
		slices.Sort(starts)
		for _, st := range starts {
			end := st + Time(r.ExpFloat64(float64(time.Hour))) + 1
			bg.buckets[k] = append(bg.buckets[k], Task{Start: st, End: end, Label: "bg"})
		}
	}
	s.Background = bg
	var earliest [64]Time
	for i := range earliest {
		earliest[i] = 15*day + Time(r.Int63n(int64(day)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := earliest[i%len(earliest)]
		if _, ok := s.FindSlot(e, 30*time.Minute, e+7*day); !ok {
			b.Fatal("no slot in a 7-day window")
		}
	}
}
