package sim

import (
	"slices"
	"testing"

	"lockss/internal/prng"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events fired out of order: %v", got)
	}
	if e.Now() != 100 {
		t.Errorf("clock should advance to horizon, got %v", e.Now())
	}
}

func TestFIFOSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, func() { fired = true })
	if !e.Cancel(id) {
		t.Error("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Error("double Cancel returned true")
	}
	e.Run(100)
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	var idz []EventID
	for i := 0; i < 20; i++ {
		i := i
		idz = append(idz, e.At(Time(i*10), func() { got = append(got, i) }))
	}
	// Cancel the odd ones.
	for i := 1; i < 20; i += 2 {
		e.Cancel(idz[i])
	}
	e.Run(1000)
	if len(got) != 10 {
		t.Fatalf("got %d events, want 10", len(got))
	}
	for _, v := range got {
		if v%2 != 0 {
			t.Errorf("cancelled event %d fired", v)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			e.After(10, chain)
		}
	}
	e.After(10, chain)
	e.Run(1000)
	if count != 5 {
		t.Errorf("chained events fired %d times, want 5", count)
	}
	if e.Now() != 1000 {
		t.Errorf("clock at %v", e.Now())
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(50, func() { fired++ })
	e.At(150, func() { fired++ })
	e.Run(100)
	if fired != 1 {
		t.Errorf("fired %d events before horizon 100, want 1", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending %d, want 1", e.Pending())
	}
	e.Run(200)
	if fired != 2 {
		t.Errorf("fired %d after second run, want 2", fired)
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(100, func() { fired = true })
	e.Run(100)
	if !fired {
		t.Error("event exactly at the horizon should fire")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run(200)
}

func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++; e.Stop() })
	e.At(20, func() { fired++ })
	e.Run(100)
	if fired != 1 {
		t.Errorf("Stop did not halt the run: fired=%d", fired)
	}
	if e.Now() != 10 {
		t.Errorf("clock should freeze at stop instant, got %v", e.Now())
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	if !e.Step() || fired != 1 || e.Now() != 10 {
		t.Errorf("first Step wrong: fired=%d now=%v", fired, e.Now())
	}
	if !e.Step() || fired != 2 {
		t.Error("second Step wrong")
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-5, func() { fired = true })
	e.Run(0)
	if !fired {
		t.Error("negative After should fire immediately")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var at []Time
	tk := e.NewTicker(10, func() Duration {
		at = append(at, e.Now())
		return 0
	})
	e.Run(55)
	tk.Stop()
	e.Run(100)
	if len(at) != 5 {
		t.Fatalf("ticker fired %d times, want 5: %v", len(at), at)
	}
	for i, ts := range at {
		if ts != Time((i+1)*10) {
			t.Errorf("tick %d at %v", i, ts)
		}
	}
}

func TestTickerPeriodChange(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.NewTicker(10, func() Duration {
		at = append(at, e.Now())
		if len(at) == 2 {
			return 30
		}
		return 0
	})
	e.Run(100)
	// Ticks: 10, 20, then every 30: 50, 80.
	want := []Time{10, 20, 50, 80}
	if len(at) != len(want) {
		t.Fatalf("ticks %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("ticks %v, want %v", at, want)
		}
	}
}

func TestTickerSelfStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.NewTicker(10, func() Duration {
		n++
		if n == 3 {
			return -1
		}
		return 0
	})
	e.Run(1000)
	if n != 3 {
		t.Errorf("self-stopping ticker fired %d times, want 3", n)
	}
}

func TestTimeHelpers(t *testing.T) {
	ts := Time(0).Add(3 * Day).Add(5 * Hour)
	if ts.Days() < 3.2 || ts.Days() > 3.3 {
		t.Errorf("Days() = %v", ts.Days())
	}
	if ts.Sub(Time(0)) != 3*Day+5*Hour {
		t.Errorf("Sub wrong")
	}
	if s := ts.String(); s != "d3+5h0m0s" {
		t.Errorf("String() = %q", s)
	}
	if Time(2*Second).Seconds() != 2 {
		t.Error("Seconds() wrong")
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run(100)
	if e.Executed != 7 {
		t.Errorf("Executed = %d, want 7", e.Executed)
	}
}

// TestEngineDeepCancel schedules about 2,000 events at random instants (many
// sharing one, so FIFO order matters), cancels a random third of them from
// all over the heap, and checks that the rest fire in the order of a stable
// sort by instant. Each cancel moves the last entry into the hole, and only
// sifting it both ways keeps that order.
func TestEngineDeepCancel(t *testing.T) {
	type scheduled struct {
		at    Time
		label int
		id    EventID
	}
	r := prng.New(13)
	e := NewEngine()
	var all []scheduled
	var fired []int
	for i := 0; i < 2000; i++ {
		at := Time(r.Int63n(700))
		all = append(all, scheduled{at: at, label: i, id: e.At(at, func() { fired = append(fired, i) })})
	}
	cancelled := make([]bool, len(all))
	for _, k := range r.Perm(len(all))[:len(all)/3] {
		if !e.Cancel(all[k].id) {
			t.Fatalf("Cancel of pending event %d returned false", k)
		}
		cancelled[k] = true
	}
	var want []scheduled
	for k, s := range all {
		if !cancelled[k] {
			want = append(want, s)
		}
	}
	if e.Pending() != len(want) {
		t.Fatalf("Pending() = %d after cancels, want %d", e.Pending(), len(want))
	}
	slices.SortStableFunc(want, func(a, b scheduled) int { return int(a.at - b.at) })
	e.Run(1000)
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i, s := range want {
		if fired[i] != s.label {
			t.Fatalf("event %d fired %d, want %d (at %v)", i, fired[i], s.label, s.at)
		}
	}
}

// TestEngineAllocs pins the engine at zero allocations per event once the
// queue and slot arrays have grown to the run's peak: scheduling, firing and
// cancelling all reuse them.
func TestEngineAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.At(Time(1_000_000+i), fn)
	}
	if n := testing.AllocsPerRun(1000, func() { e.After(0, fn); e.Step() }); n != 0 {
		t.Errorf("At+fire: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { e.Cancel(e.After(1, fn)) }); n != 0 {
		t.Errorf("At+Cancel: %v allocs/op, want 0", n)
	}
}

// BenchmarkEngineDeepQueue measures one event at the queue depth of a
// 5k-peer capacity run: about 200k pending events at exponentially spread
// instants, each fired event scheduling its successor, and one schedule in
// ten cancelled before it fires, as protocol timeouts are.
// BenchmarkEngineEventThroughput (root package) holds a single pending
// event, so it never exercises depth.
func BenchmarkEngineDeepQueue(b *testing.B) {
	const depth = 200_000
	r := prng.New(7)
	var delays [1 << 16]Duration
	for i := range delays {
		delays[i] = Duration(r.ExpFloat64(float64(Hour)))
	}
	e := NewEngine()
	var recent [1024]EventID // the latest schedules, oldest at k%len
	k, n := 0, 0
	var fire func()
	schedule := func() {
		recent[k%len(recent)] = e.After(delays[k%len(delays)], fire)
		k++
	}
	fire = func() {
		n++
		schedule()
		if n%9 == 0 {
			e.Cancel(recent[k%len(recent)])
			schedule()
		}
	}
	for i := 0; i < depth; i++ {
		schedule()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
