package experiment

import (
	"fmt"

	"lockss/internal/adversary"
	"lockss/internal/sched"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// Ablation experiments probe the design choices docs/ARCHITECTURE.md
// describes. Each is a registered Scenario rendering a Table in the style of
// the paper figures.

// sustainedFlood builds the full-coverage admission flood that lasts the
// whole run — the ablations' standard stressor.
func sustainedFlood(cfg world.Config) adversary.Adversary {
	return &adversary.AdmissionFlood{Pulse: adversary.Pulse{
		Coverage: 1.0, Duration: cfg.Duration, Recuperation: 30 * sim.Day,
	}}
}

// bruteRemaining builds the brute-force adversary defecting at REMAINING.
func bruteRemaining() adversary.Adversary {
	return &adversary.BruteForce{Defection: adversary.DefectRemaining}
}

// boolAxis sweeps a protocol toggle in the given order.
func boolAxis(name string, order []bool, apply func(cfg *world.Config, on bool)) Axis {
	vals := make([]float64, len(order))
	for i, on := range order {
		if on {
			vals[i] = 1
		}
	}
	return Axis{
		Name:   name,
		Values: vals,
		Apply:  func(cfg *world.Config, v float64) { apply(cfg, v != 0) },
		Format: func(v float64) string { return fmt.Sprintf("%v", v != 0) },
	}
}

// scenarioAblationRefractory sweeps the refractory period under a sustained
// full-coverage admission-control flood.
var scenarioAblationRefractory = mustRegister(&Scenario{
	Name:        "ablation-refractory",
	Description: "Ablation A1: refractory period under sustained admission-control flood",
	Axes: []Axis{{
		Name:   "refractory(days)",
		Values: []float64{0.25, 0.5, 1, 2, 4},
		Apply: func(cfg *world.Config, v float64) {
			cfg.Protocol.Refractory = sched.Duration(v * float64(sim.Day))
		},
		Format: func(v float64) string { return fmt.Sprintf("%.2f", v) },
	}},
	Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
		return sustainedFlood(cfg)
	},
	Compare: true,
	Tables: func(o Options, res *Result) []*Table {
		t := &Table{
			ID:      "Ablation A1",
			Title:   "Refractory period under sustained admission-control flood",
			Columns: []string{"refractory(days)", "access-failure", "delay-ratio", "coeff-friction"},
		}
		for i := range res.Points {
			pr := &res.Points[i]
			t.AddCells(Num("%.2f", pr.Point.At(0)), Prob(pr.Stats.AccessFailure),
				Ratio(pr.Cmp.DelayRatio), Ratio(pr.Cmp.Friction))
		}
		t.Notes = append(t.Notes,
			"longer refractory periods shield busier peers but slow discovery (§9 of the paper)")
		return []*Table{t}
	},
	Progress: func(o Options, pt Point, pr PointResult) string {
		return fmt.Sprintf("ablation/refractory %gd afp=%s", pt.At(0), fmtProb(pr.Stats.AccessFailure))
	},
})

// AblationRefractory reproduces ablation A1 through the scenario registry.
func AblationRefractory(o Options) (*Table, error) {
	return oneTable(runRegistered(scenarioAblationRefractory.Name, o))
}

// ablationDropSettings pairs the swept (drop-unknown, drop-debt)
// probabilities; the axis sweeps indices into it.
var ablationDropSettings = []struct{ unknown, debt float64 }{
	{0.50, 0.40}, {0.80, 0.60}, {0.90, 0.80}, {0.95, 0.90},
}

// scenarioAblationDropProb sweeps the unknown/in-debt drop probabilities
// under the brute-force REMAINING attack.
var scenarioAblationDropProb = mustRegister(&Scenario{
	Name:        "ablation-drop-prob",
	Description: "Ablation A2: drop probabilities vs brute-force REMAINING attack",
	Axes: []Axis{{
		Name:   "setting",
		Values: []float64{0, 1, 2, 3},
		Apply: func(cfg *world.Config, v float64) {
			s := ablationDropSettings[int(v)]
			cfg.Protocol.DropUnknown = s.unknown
			cfg.Protocol.DropDebt = s.debt
		},
		Format: func(v float64) string {
			s := ablationDropSettings[int(v)]
			return fmt.Sprintf("%.2f/%.2f", s.unknown, s.debt)
		},
	}},
	Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
		return bruteRemaining()
	},
	Compare: true,
	Tables: func(o Options, res *Result) []*Table {
		t := &Table{
			ID:      "Ablation A2",
			Title:   "Drop probabilities vs brute-force REMAINING attack",
			Columns: []string{"drop-unknown", "drop-debt", "cost-ratio", "coeff-friction"},
		}
		for i := range res.Points {
			pr := &res.Points[i]
			s := ablationDropSettings[int(pr.Point.At(0))]
			t.AddCells(Num("%.2f", s.unknown), Num("%.2f", s.debt),
				Ratio(pr.Cmp.CostRatio), Ratio(pr.Cmp.Friction))
		}
		t.Notes = append(t.Notes,
			"higher drop probabilities force the attacker to spend more introductory effort per admission")
		return []*Table{t}
	},
	Progress: func(o Options, pt Point, pr PointResult) string {
		s := ablationDropSettings[int(pt.At(0))]
		return fmt.Sprintf("ablation/drop %.2f/%.2f cost=%s", s.unknown, s.debt, fmtRatio(pr.Cmp.CostRatio))
	},
})

// AblationDropProb reproduces ablation A2 through the scenario registry.
func AblationDropProb(o Options) (*Table, error) {
	return oneTable(runRegistered(scenarioAblationDropProb.Name, o))
}

// scenarioAblationIntroductions toggles peer introductions under a
// sustained admission flood and reports discovery health.
var scenarioAblationIntroductions = mustRegister(&Scenario{
	Name:        "ablation-introductions",
	Description: "Ablation A3: peer introductions on/off under sustained admission-control flood",
	Axes: []Axis{boolAxis("introductions", []bool{true, false},
		func(cfg *world.Config, on bool) { cfg.Protocol.Introductions = on })},
	Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
		return sustainedFlood(cfg)
	},
	Compare: true,
	Tables: func(o Options, res *Result) []*Table {
		t := &Table{
			ID:      "Ablation A3",
			Title:   "Peer introductions on/off under sustained admission-control flood",
			Columns: []string{"introductions", "polls-ok", "delay-ratio", "coeff-friction"},
		}
		for i := range res.Points {
			pr := &res.Points[i]
			t.AddCells(Bool(pr.Point.At(0) != 0), Num("%.0f", pr.Stats.SuccessfulPolls),
				Ratio(pr.Cmp.DelayRatio), Ratio(pr.Cmp.Friction))
		}
		t.Notes = append(t.Notes,
			"introductions let loyal-but-unknown pollers bypass refractory periods the flood keeps triggered")
		return []*Table{t}
	},
	Progress: func(o Options, pt Point, pr PointResult) string {
		return fmt.Sprintf("ablation/intros=%v polls=%.0f", pt.At(0) != 0, pr.Stats.SuccessfulPolls)
	},
})

// AblationIntroductions reproduces ablation A3 through the scenario
// registry.
func AblationIntroductions(o Options) (*Table, error) {
	return oneTable(runRegistered(scenarioAblationIntroductions.Name, o))
}

// scenarioAblationDesynchronization toggles desynchronized vote
// solicitation and reports poll health, absent and under attack (§5.2's
// rendezvous problem).
var scenarioAblationDesynchronization = mustRegister(&Scenario{
	Name:        "ablation-desynchronization",
	Description: "Ablation A4: desynchronization on/off (baseline and brute-force REMAINING)",
	// The §5.2 rendezvous problem only bites when peers are busy: slow the
	// reference machine's hashing so votes take hours, as they would with
	// hundreds of concurrent AUs.
	Mutators: []ConfigMutator{func(cfg *world.Config) { cfg.HashBytesPerSec = 4 << 10 }},
	Axes: []Axis{boolAxis("desync", []bool{true, false},
		func(cfg *world.Config, on bool) { cfg.Protocol.Desynchronize = on })},
	Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
		return bruteRemaining()
	},
	Compare: true,
	Tables: func(o Options, res *Result) []*Table {
		t := &Table{
			ID:      "Ablation A4",
			Title:   "Desynchronization on/off (baseline and brute-force REMAINING)",
			Columns: []string{"desync", "scenario", "polls-ok", "polls-total", "mean-gap(days)"},
		}
		for i := range res.Points {
			pr := &res.Points[i]
			on := Bool(pr.Point.At(0) != 0)
			t.AddCells(on, Str("baseline"),
				Num("%.0f", pr.Baseline.SuccessfulPolls),
				Num("%.0f", pr.Baseline.TotalPolls),
				Num("%.1f", pr.Baseline.MeanSuccessGap))
			t.AddCells(on, Str("brute-force"),
				Num("%.0f", pr.Stats.SuccessfulPolls),
				Num("%.0f", pr.Stats.TotalPolls),
				Num("%.1f", pr.Stats.MeanSuccessGap))
		}
		t.Notes = append(t.Notes,
			"synchronous solicitation needs a quorum of simultaneously free voters; busyness then collapses polls (§5.2)")
		return []*Table{t}
	},
	Progress: func(o Options, pt Point, pr PointResult) string {
		return fmt.Sprintf("ablation/desync=%v ok=%.0f/%.0f",
			pt.At(0) != 0, pr.Stats.SuccessfulPolls, pr.Stats.TotalPolls)
	},
})

// AblationDesynchronization reproduces ablation A4 through the scenario
// registry.
func AblationDesynchronization(o Options) (*Table, error) {
	return oneTable(runRegistered(scenarioAblationDesynchronization.Name, o))
}

// scenarioAblationEffortBalancing toggles effort balancing under the
// brute-force NONE attack, showing the attacker's cost collapsing when
// requests are cheap.
var scenarioAblationEffortBalancing = mustRegister(&Scenario{
	Name:        "ablation-effort-balancing",
	Description: "Ablation A5: effort balancing on/off under brute-force NONE attack",
	Axes: []Axis{boolAxis("effort-balancing", []bool{true, false},
		func(cfg *world.Config, on bool) { cfg.Protocol.EffortBalancing = on })},
	Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
		return &adversary.BruteForce{Defection: adversary.DefectNone}
	},
	Compare: true,
	Tables: func(o Options, res *Result) []*Table {
		t := &Table{
			ID:      "Ablation A5",
			Title:   "Effort balancing on/off under brute-force NONE attack",
			Columns: []string{"effort-balancing", "attacker-effort", "defender-effort", "cost-ratio", "coeff-friction"},
		}
		for i := range res.Points {
			pr := &res.Points[i]
			t.AddCells(Bool(pr.Point.At(0) != 0),
				Num("%.0f", pr.Stats.AttackerEffort),
				Num("%.0f", pr.Stats.DefenderEffort),
				Ratio(pr.Cmp.CostRatio), Ratio(pr.Cmp.Friction))
		}
		t.Notes = append(t.Notes,
			"without effort balancing the attacker imposes defender work at near-zero cost to itself")
		return []*Table{t}
	},
	Progress: func(o Options, pt Point, pr PointResult) string {
		return fmt.Sprintf("ablation/effort=%v cost=%s", pt.At(0) != 0, fmtRatio(pr.Cmp.CostRatio))
	},
})

// AblationEffortBalancing reproduces ablation A5 through the scenario
// registry.
func AblationEffortBalancing(o Options) (*Table, error) {
	return oneTable(runRegistered(scenarioAblationEffortBalancing.Name, o))
}
