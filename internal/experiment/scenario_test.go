package experiment

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lockss/internal/adversary"
	"lockss/internal/sim"
	"lockss/internal/world"
)

var updateGolden = flag.Bool("update", false, "rewrite the scenario golden files")

// builtinOrder is the CLI's -figure all emission order; the concatenation
// of these goldens is exactly `lockss-sim -figure all -scale tiny`.
var builtinOrder = []string{
	"figure2",
	"figures-pipe-stoppage",
	"figures-admission-flood",
	"table1",
	"ablation-refractory",
	"ablation-drop-prob",
	"ablation-introductions",
	"ablation-desynchronization",
	"ablation-effort-balancing",
	"extension-churn",
	"extension-adaptive",
	"extension-combined",
}

// legacyWrappers maps a representative subset of scenarios to their legacy
// generator functions, to assert the wrappers and the registry path emit
// identical bytes. (Attack runs are not memoized, so re-running every
// scenario through its wrapper would double the suite's cost for no extra
// coverage — the wrappers are one-line calls into the same registry path.)
var legacyWrappers = map[string]func(Options) ([]*Table, error){
	"figure2":                func(o Options) ([]*Table, error) { return wrapOne(Figure2(o)) },
	"table1":                 func(o Options) ([]*Table, error) { return wrapOne(Table1(o)) },
	"ablation-introductions": func(o Options) ([]*Table, error) { return wrapOne(AblationIntroductions(o)) },
	"extension-combined":     func(o Options) ([]*Table, error) { return wrapOne(ExtensionCombined(o)) },
}

func wrapOne(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

func renderTables(ts []*Table) []byte {
	var buf bytes.Buffer
	for _, t := range ts {
		t.Fprint(&buf)
	}
	return buf.Bytes()
}

// checkGolden diffs got against the golden file at path, rewriting it first
// when -update is set, and returns the golden bytes.
func checkGolden(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from golden %s (run with -update to inspect):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
	return want
}

// TestScenarioGolden asserts every built-in scenario's tiny-scale output is
// byte-for-byte what the legacy generators produced (recorded in testdata),
// both through the registry path and through the legacy wrappers.
// Regenerate with `go test -run TestScenarioGolden -update`.
func TestScenarioGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario at tiny scale")
	}
	// One shared engine: scenarios share memoized baselines like the CLI.
	eng := NewEngine(0)
	for _, name := range builtinOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, ok := Lookup(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			o := Options{Scale: ScaleTiny, Engine: eng}
			tables, err := spec.Run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			got := renderTables(tables)
			want := checkGolden(t, filepath.Join("testdata", "golden", name+".golden"), got)

			// The legacy wrapper must emit the same bytes.
			if wrapper, ok := legacyWrappers[name]; ok {
				legacyTables, err := wrapper(Options{Scale: ScaleTiny, Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				if legacy := renderTables(legacyTables); !bytes.Equal(legacy, want) {
					t.Errorf("legacy wrapper for %q diverges from the registry path", name)
				}
			}
		})
	}
}

// TestScenarioGoldenSmall widens the capture-and-diff net beyond ScaleTiny:
// one registered scenario is pinned byte-for-byte at ScaleSmall, where the
// larger population, longer horizon and multi-seed averaging exercise
// aggregation and float-accumulation paths the tiny goldens cannot reach.
// Together with TestScenarioGolden this is the safety harness for hot-path
// optimization work: any change to seed derivation, RNG consumption order,
// accumulation order or formatting shows up as a byte diff.
// Regenerate with `go test -run TestScenarioGoldenSmall -update`.
func TestScenarioGoldenSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a ScaleSmall scenario (tens of seconds)")
	}
	const name = "ablation-introductions"
	spec, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	tables, err := spec.Run(context.Background(), Options{Scale: ScaleSmall, Engine: NewEngine(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden", name+"@small.golden"), renderTables(tables))
}

// TestScenarioGoldenLarge pins the ~5k-peer capacity tier byte-for-byte:
// the scale-large-baseline scenario runs cold-bootstrap steady state on a
// population 50x the paper's, exercising the code paths (dense event index,
// SoA-ish peer state, pooled network deliveries) that only matter at scale.
// Regenerate with `go test -run TestScenarioGoldenLarge -update`.
func TestScenarioGoldenLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a ScaleLarge scenario (5k peers)")
	}
	const name = "scale-large-baseline"
	spec, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	tables, err := spec.Run(context.Background(), Options{Scale: ScaleTiny, Engine: NewEngine(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden", name+".golden"), renderTables(tables))
}

// TestBruteForceRunStatsPinned pins one effortful-adversary run's RunStats
// bit for bit, floats as exact bit patterns. The attacker's effort ledger is
// charged from three call sites interleaved in event order (introductory
// bursts, effort-balancing remainders, vote evaluations), so any change to
// when or in what order charges land moves AttackerEffort's low bits. The
// goldens print effort ratios rounded and cannot see that.
func TestBruteForceRunStatsPinned(t *testing.T) {
	cfg := scenarioTestConfig(Options{})
	cfg.DamageDiskYears = 1
	stats, err := RunOne(cfg, func() adversary.Adversary {
		return &adversary.BruteForce{Defection: adversary.DefectNone, Minions: 8, Coverage: 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"AccessFailure", stats.AccessFailure, 0x3fb6c1ddccd97299},     // 0.08889566661077665
		{"MeanSuccessGap", stats.MeanSuccessGap, 0x40552d2d2d2d2d2d},   // 84.70588235294117
		{"SuccessfulPolls", stats.SuccessfulPolls, 0x4041000000000000}, // 34
		{"TotalPolls", stats.TotalPolls, 0x4041000000000000},           // 34
		{"DefenderEffort", stats.DefenderEffort, 0x4097548d004ae5ae},   // 1493.137696428555
		{"AttackerEffort", stats.AttackerEffort, 0x40a1551249248e7e},   // 2218.5357142852727
		{"EffortPerPoll", stats.EffortPerPoll, 0x4045f53969afe73a},     // 43.91581460083985
		{"Alarms", stats.Alarms, 0x0000000000000000},                   // 0
		{"DamageEvents", stats.DamageEvents, 0x4018000000000000},       // 6
		{"RepairsFixed", stats.RepairsFixed, 0x4008000000000000},       // 3
	} {
		if got := math.Float64bits(c.got); got != c.want {
			t.Errorf("%s = %v (bits %#016x), want %v (bits %#016x)",
				c.name, c.got, got, math.Float64frombits(c.want), c.want)
		}
	}
}

// TestRegistryBuiltins asserts every shipped artifact is registered and
// listed in sorted order with a description.
func TestRegistryBuiltins(t *testing.T) {
	listed := List()
	byName := make(map[string]*Scenario, len(listed))
	for i, s := range listed {
		if s.Description == "" {
			t.Errorf("scenario %q has no description", s.Name)
		}
		if i > 0 && listed[i-1].Name >= s.Name {
			t.Errorf("List() not sorted: %q before %q", listed[i-1].Name, s.Name)
		}
		byName[s.Name] = s
	}
	for _, name := range builtinOrder {
		if _, ok := byName[name]; !ok {
			t.Errorf("built-in scenario %q missing from List()", name)
		}
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
}

// TestRegisterValidation asserts the registry rejects nil, unnamed and
// duplicate scenarios.
func TestRegisterValidation(t *testing.T) {
	if err := Register(nil); err == nil {
		t.Error("Register(nil) should fail")
	}
	if err := Register(&Scenario{Name: "  "}); err == nil {
		t.Error("Register with blank name should fail")
	}
	name := "test-register-validation"
	if err := Register(&Scenario{Name: name, Description: "x"}); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := Register(&Scenario{Name: name, Description: "y"}); err == nil {
		t.Error("duplicate Register should fail")
	}
}

// scenarioTestConfig is a fast population for scenario execution tests.
func scenarioTestConfig(o Options) world.Config {
	cfg := world.Default()
	cfg.Peers = 12
	cfg.AUs = 2
	cfg.AUSize = 16 << 20
	cfg.Duration = 120 * sim.Day
	return cfg
}

// TestRunScenarioGuards asserts seeds and layers below 1 surface
// descriptive errors instead of silently returning zero stats.
func TestRunScenarioGuards(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		spec *Scenario
		want string
	}{
		{"seeds", &Scenario{Name: "g1", Base: scenarioTestConfig, Seeds: -1}, "seeds"},
		{"layers", &Scenario{Name: "g2", Base: scenarioTestConfig, Layers: -2}, "layers"},
		{
			"seeds-at",
			&Scenario{Name: "g3", Base: scenarioTestConfig,
				SeedsAt: func(o Options, pt Point) int { return 0 }},
			"seeds",
		},
	} {
		_, err := RunScenario(ctx, tc.spec, Options{Scale: ScaleTiny})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// The engine entry points guard too.
	e := NewEngine(2)
	cfg := scenarioTestConfig(Options{})
	if _, err := e.RunAveraged(ctx, cfg, nil, 0); err == nil || !strings.Contains(err.Error(), "seeds") {
		t.Errorf("RunAveraged(seeds=0): err = %v", err)
	}
	if _, err := e.RunLayered(ctx, cfg, nil, 0); err == nil || !strings.Contains(err.Error(), "layers") {
		t.Errorf("RunLayered(layers=0): err = %v", err)
	}
	if _, err := e.RunLayeredAveraged(ctx, cfg, nil, 2, -3); err == nil || !strings.Contains(err.Error(), "seeds") {
		t.Errorf("RunLayeredAveraged(seeds=-3): err = %v", err)
	}
	if _, err := RunScenario(ctx, nil, Options{}); err == nil {
		t.Error("RunScenario(nil) should fail")
	}
}

// TestRunScenarioCancel asserts RunScenario honors context cancellation:
// a pre-canceled context fails immediately, and canceling mid-sweep skips
// the queued points and returns promptly with ctx.Err().
func TestRunScenarioCancel(t *testing.T) {
	spec := &Scenario{
		Name: "cancel-test",
		Base: scenarioTestConfig,
		Axes: []Axis{{
			Name: "i",
			ValuesFor: func(o Options) []float64 {
				vs := make([]float64, 64)
				for i := range vs {
					vs[i] = float64(i)
				}
				return vs
			},
			// Vary the seed so no point is served from the memo.
			Apply: func(cfg *world.Config, v float64) { cfg.Seed = uint64(v) + 1 },
		}},
		Seeds: 1,
	}

	// Pre-canceled: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunScenario(ctx, spec, Options{Scale: ScaleTiny, Engine: NewEngine(1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("pre-canceled RunScenario took %v", d)
	}

	// Cancel mid-sweep: point 0 cancels the context from inside its
	// executor (deterministic, unlike waiting for a wall-clock race — the
	// optimized engine can drain a 64-point tiny sweep faster than an
	// external cancel lands), and points 1..63 wait until it has, so every
	// one of their runs must be skipped rather than simulated and the sweep
	// must surface ctx.Err().
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	canceled := make(chan struct{})
	var ran atomic.Int32
	cancelSpec := &Scenario{
		Name: "cancel-test-mid",
		Base: scenarioTestConfig,
		Axes: spec.Axes,
		RunPoint: func(ctx context.Context, e *Engine, o Options, cfg world.Config, pt Point) (PointResult, error) {
			if pt.Index == 0 {
				cancel2()
				close(canceled)
				return PointResult{}, ctx.Err()
			}
			<-canceled
			stats, err := e.RunOne(ctx, cfg, nil)
			if err == nil {
				ran.Add(1)
			}
			return PointResult{Stats: stats}, err
		},
	}
	start = time.Now()
	_, err = RunScenario(ctx2, cancelSpec, Options{Scale: ScaleTiny, Engine: NewEngine(1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("canceled RunScenario took %v; queued points were not skipped", d)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d later points simulated despite cancellation", n)
	}
}

// TestRunScenarioCustom exercises a user-defined scenario end to end: grid
// expansion, filtering, attack factory, comparison, and the generic
// renderer.
func TestRunScenarioCustom(t *testing.T) {
	var attacks atomic.Int32
	spec := &Scenario{
		Name:        "custom-test",
		Description: "stoppage coverage sweep",
		Base:        scenarioTestConfig,
		Mutators:    []ConfigMutator{func(cfg *world.Config) { cfg.DamageDiskYears = 1 }},
		Axes: []Axis{{
			Name:   "coverage",
			Values: []float64{0.25, 0.5, 0.75, 1.0},
			Format: func(v float64) string { return fmt.Sprintf("%.0f%%", v*100) },
		}},
		Filter: func(o Options, pt Point) bool { return pt.At(0) != 0.75 },
		Attack: func(o Options, cfg world.Config, pt Point) adversary.Adversary {
			attacks.Add(1)
			return &adversary.PipeStoppage{Pulse: adversary.Pulse{
				Coverage: pt.At(0), Duration: 30 * sim.Day, Recuperation: 15 * sim.Day,
			}}
		},
		Seeds:   1,
		Compare: true,
	}
	res, err := RunScenario(context.Background(), spec, Options{Scale: ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("filtered grid has %d points, want 3", len(res.Points))
	}
	for i, pr := range res.Points {
		if pr.Point.Index != i {
			t.Errorf("point %d has index %d", i, pr.Point.Index)
		}
		if pr.Cmp == nil || pr.Baseline == nil {
			t.Fatalf("point %d missing comparison", i)
		}
		if pr.Stats.TotalPolls == 0 {
			t.Errorf("point %d ran nothing", i)
		}
	}
	// Coords index the axis values, so the filtered-out 0.75 leaves the
	// 100% point addressable at its original coordinate 3.
	if got := res.At(3); got == nil || got.Point.At(0) != 1.0 {
		t.Errorf("At(3) = %+v, want the 100%% coverage point", got)
	}
	if attacks.Load() == 0 {
		t.Error("attack factory never invoked")
	}

	// The generic renderer: axis column + metrics + comparison columns.
	tables, err := spec.Run(context.Background(), Options{Scale: ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tables[0].Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"custom-test", "coverage", "delay-ratio", "100%"} {
		if !strings.Contains(out, want) {
			t.Errorf("generic table missing %q:\n%s", want, out)
		}
	}
	if len(tables[0].Rows) != 3 {
		t.Errorf("generic table has %d rows, want 3", len(tables[0].Rows))
	}
}

// TestScenarioDeterminism asserts the scenario path is invariant under the
// worker count, like the engine beneath it.
func TestScenarioDeterminism(t *testing.T) {
	spec, _ := Lookup("extension-combined")
	run := func(workers int) *Result {
		res, err := RunScenario(context.Background(), spec, Options{
			Scale: ScaleTiny, Seeds: 1, Engine: NewEngine(workers),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i].Stats != b.Points[i].Stats {
			t.Errorf("point %d stats differ across worker counts", i)
		}
	}
}
