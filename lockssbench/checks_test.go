package main

import (
	"testing"

	"lockss/internal/experiment"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 9, 2}, [3]float64{1.25, 3.5, 8}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 7, 1, 3, 3, 9, 11}, [3]float64{2.5, 3, 9}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestSimViolation checks that the seed-independent sim checks catch a
// wrong result.
func TestSimViolation(t *testing.T) {
	ok := experiment.RunStats{AccessFailure: 0.008, SuccessfulPolls: 516, TotalPolls: 516, DefenderEffort: 1e6}
	counts := simCounts{worlds: 1, events: 1e6, pollsStarted: 520, pollsDone: 516, pollsOK: 516}
	pass := func(s experiment.RunStats, c simCounts) *simPass {
		return &simPass{res: &experiment.Result{Points: []experiment.PointResult{{Stats: s}}}, counts: c}
	}
	if v := pass(ok, counts).violation(false); v != "" {
		t.Fatalf("a good attack-free pass fails: %s", v)
	}
	alarmed, damaged, attacked := ok, ok, ok
	alarmed.Alarms = 1
	damaged.AccessFailure = 0.2
	attacked.AttackerEffort = 5
	miscounted := counts
	miscounted.pollsOK--
	for name, p := range map[string]*simPass{
		"alarm":        pass(alarmed, counts),
		"damage":       pass(damaged, counts),
		"attacker":     pass(attacked, counts),
		"poll counts":  pass(ok, miscounted),
		"no points":    {res: &experiment.Result{}, counts: counts},
		"no successes": pass(experiment.RunStats{DefenderEffort: 1}, counts),
	} {
		if p.violation(false) == "" {
			t.Errorf("%s: wrong pass not caught", name)
		}
	}
	if pass(ok, counts).violation(true) == "" {
		t.Errorf("attacked pass without attacker effort not caught")
	}
}
