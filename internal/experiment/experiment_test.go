package experiment

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"lockss/internal/prng"
	"lockss/internal/sched"
	"lockss/internal/sim"
)

func TestCompareRatios(t *testing.T) {
	base := RunStats{MeanSuccessGap: 90, EffortPerPoll: 100, DefenderEffort: 1000}
	attack := RunStats{MeanSuccessGap: 180, EffortPerPoll: 250, DefenderEffort: 2000, AttackerEffort: 3000}
	c := Compare(attack, base)
	if c.DelayRatio != 2.0 {
		t.Errorf("delay ratio %v", c.DelayRatio)
	}
	if c.Friction != 2.5 {
		t.Errorf("friction %v", c.Friction)
	}
	if c.CostRatio != 1.5 {
		t.Errorf("cost ratio %v", c.CostRatio)
	}
}

func TestCompareInfiniteGap(t *testing.T) {
	base := RunStats{MeanSuccessGap: 90, EffortPerPoll: 100}
	attack := RunStats{MeanSuccessGap: math.Inf(1)}
	c := Compare(attack, base)
	if !math.IsInf(c.DelayRatio, 1) {
		t.Errorf("delay ratio should be +Inf, got %v", c.DelayRatio)
	}
}

func TestAverage(t *testing.T) {
	a := RunStats{AccessFailure: 0.1, SuccessfulPolls: 10, DefenderEffort: 100, EffortPerPoll: 10, MeanSuccessGap: 80}
	b := RunStats{AccessFailure: 0.3, SuccessfulPolls: 20, DefenderEffort: 300, EffortPerPoll: 15, MeanSuccessGap: 100}
	avg := average([]RunStats{a, b})
	if math.Abs(avg.AccessFailure-0.2) > 1e-12 || avg.SuccessfulPolls != 15 || avg.MeanSuccessGap != 90 {
		t.Errorf("average wrong: %+v", avg)
	}
}

func TestCombineLayers(t *testing.T) {
	a := RunStats{AccessFailure: 0.2, SuccessfulPolls: 100, DefenderEffort: 1000, MeanSuccessGap: 90}
	b := RunStats{AccessFailure: 0.4, SuccessfulPolls: 300, DefenderEffort: 3000, MeanSuccessGap: 110}
	c := combineLayers([]RunStats{a, b})
	if math.Abs(c.AccessFailure-0.3) > 1e-12 {
		t.Errorf("layer AFP should average: %v", c.AccessFailure)
	}
	if c.SuccessfulPolls != 400 || c.DefenderEffort != 4000 {
		t.Error("layer counts should sum")
	}
	if c.EffortPerPoll != 10 {
		t.Errorf("effort per poll %v", c.EffortPerPoll)
	}
	// Success-weighted gap: (90*100 + 110*300)/400 = 105.
	if math.Abs(c.MeanSuccessGap-105) > 1e-9 {
		t.Errorf("weighted gap %v", c.MeanSuccessGap)
	}
}

// drain collects the background stream a schedule query over [from, to)
// would see.
func drain(bg sched.Background, from, to sched.Time) []sched.Task {
	var out []sched.Task
	c := sched.BgCursor{From: from, To: to}
	for {
		t, next, ok := bg.Next(c)
		if !ok {
			return out
		}
		out = append(out, t)
		c = next
	}
}

func TestBgLoadDeterministicAndSorted(t *testing.T) {
	bg := &bgLoad{seed: 42, ratePerNs: 1e-12, meanDurNs: 1e10, bucket: int64(sim.Day)}
	a := drain(bg, 0, sched.Time(10*sim.Day))
	b := drain(bg, 0, sched.Time(10*sim.Day))
	if len(a) != len(b) {
		t.Fatal("background load not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("background tasks differ between queries")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Start < a[i-1].Start {
			t.Fatal("background tasks unsorted")
		}
	}
	// Sub-range queries agree with the full range.
	sub := drain(bg, sched.Time(2*sim.Day), sched.Time(3*sim.Day))
	for _, s := range sub {
		found := false
		for _, f := range a {
			if f.Start == s.Start && f.End == s.End {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("sub-range task missing from full range")
		}
	}
}

// TestBgLoadVisibleFromFirstBucket pins what a query sees: start-ordered,
// possibly overlapping tasks from its From's bucket onward, never an earlier
// bucket's task straddling From.
func TestBgLoadVisibleFromFirstBucket(t *testing.T) {
	bg := &bgLoad{seed: 9, ratePerNs: 1e-13, meanDurNs: 2 * float64(sim.Day), bucket: int64(sim.Day)}
	all := drain(bg, 0, sched.Time(20*sim.Day))
	overlaps, straddlers := 0, 0
	from := sched.Time(5*sim.Day + sim.Day/2)
	for i, a := range all {
		if i > 0 && a.Start < all[i-1].End {
			overlaps++
		}
		if a.Start < sched.Time(5*sim.Day) && a.End > from {
			straddlers++
		}
	}
	if overlaps == 0 || straddlers == 0 {
		t.Fatalf("want overlapping tasks and straddlers of %d; got %d and %d", from, overlaps, straddlers)
	}
	for _, a := range drain(bg, from, sched.Time(20*sim.Day)) {
		if a.Start < sched.Time(5*sim.Day) {
			t.Fatalf("task [%d, %d) from an earlier bucket is visible from %d", a.Start, a.End, from)
		}
	}
}

func TestBgLoadRate(t *testing.T) {
	// Expect ~rate * horizon tasks.
	rate := 2e-13 // per ns => ~17 per day
	bg := &bgLoad{seed: 7, ratePerNs: rate, meanDurNs: 1e9, bucket: int64(sim.Day)}
	horizon := 30 * sim.Day
	n := len(drain(bg, 0, sched.Time(horizon)))
	want := rate * float64(horizon)
	if math.Abs(float64(n)-want) > 0.25*want {
		t.Errorf("background task count %d, want ~%.0f", n, want)
	}
}

func TestPoisson(t *testing.T) {
	rnd := prngNew(3)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(poisson(rnd, 3.5))
	}
	if mean := sum / n; math.Abs(mean-3.5) > 0.1 {
		t.Errorf("poisson mean %.3f, want 3.5", mean)
	}
	if poisson(rnd, 0) != 0 || poisson(rnd, -1) != 0 {
		t.Error("non-positive lambda should yield 0")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:      "Figure X",
		Title:   "Test table",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333333", "4")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Figure X", "Test table", "long-column", "333333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtProb(0) != "0" {
		t.Error("fmtProb(0)")
	}
	if fmtProb(4.8e-4) != "4.80e-04" {
		t.Errorf("fmtProb = %q", fmtProb(4.8e-4))
	}
	if fmtRatio(math.Inf(1)) != "inf" || fmtRatio(0) != "-" || fmtRatio(1.5) != "1.50" {
		t.Error("fmtRatio wrong")
	}
	if fmtSeries(0.4) != "40%" {
		t.Errorf("fmtSeries = %q", fmtSeries(0.4))
	}
}

func TestScaleOptions(t *testing.T) {
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScalePaper} {
		o := Options{Scale: s}
		cfg := o.baseWorld()
		if cfg.Peers <= cfg.Protocol.Quorum {
			t.Errorf("%v: population too small", s)
		}
		if o.seeds() < 1 || o.layersFor() < 2 {
			t.Errorf("%v: bad defaults", s)
		}
		if s.String() == "invalid" {
			t.Errorf("scale %d has no name", s)
		}
	}
	if (Options{Seeds: 7}).seeds() != 7 {
		t.Error("seed override ignored")
	}
}

func TestRunLayeredAggregates(t *testing.T) {
	o := Options{Scale: ScaleTiny}
	cfg := o.baseWorld()
	cfg.Duration = sim.Year / 2
	cfg.DamageDiskYears = 1
	single, err := RunOne(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	layered, err := RunLayered(context.Background(), cfg, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if layered.SuccessfulPolls < single.SuccessfulPolls*15/10 {
		t.Errorf("two layers should roughly double polls: %v vs %v",
			layered.SuccessfulPolls, single.SuccessfulPolls)
	}
	if layered.AccessFailure <= 0 {
		t.Error("layered run lost the damage signal")
	}
}

// prngNew is a local alias used by the poisson test.
func prngNew(seed uint64) *prng.Source { return prng.New(seed) }
