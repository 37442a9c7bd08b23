package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"lockss/internal/adversary"
	"lockss/internal/world"
)

// This file is the declarative scenario API: instead of a closed set of
// hardcoded figure generators, an experiment is a Scenario value — a base
// configuration, config mutators, an attack factory, and sweep axes over
// any numeric or duration parameter — registered under a name and executed
// by RunScenario, which fans the sweep grid across the worker-pool engine
// with full context cancellation. Every figure, table, ablation and
// extension of the paper's evaluation is itself a registered Scenario; the
// legacy generator functions are thin wrappers over the registry.

// ConfigMutator adjusts a world configuration in place before the sweep
// axes apply.
type ConfigMutator func(*world.Config)

// Axis is one swept dimension of a scenario grid. Values may be any
// numeric parameter — probabilities, counts, day-denominated durations, or
// indices into a table of richer settings consumed by Apply and the attack
// factory.
type Axis struct {
	// Name labels the axis in generic tables and progress lines.
	Name string
	// Values are the swept settings. For scale-dependent axes leave it nil
	// and set ValuesFor.
	Values []float64
	// ValuesFor, if non-nil, derives the swept settings from the options
	// (e.g. coarser grids at tiny scale). It takes precedence over Values.
	ValuesFor func(o Options) []float64
	// Apply folds one value into the config. May be nil for axes consumed
	// only by the attack factory, Filter, or per-point hooks.
	Apply func(cfg *world.Config, v float64)
	// Format renders a value for labels; nil means %g.
	Format func(v float64) string
}

// values resolves the axis settings for a generation.
func (a Axis) values(o Options) []float64 {
	if a.ValuesFor != nil {
		return a.ValuesFor(o)
	}
	return a.Values
}

// format renders one axis value.
func (a Axis) format(v float64) string {
	if a.Format != nil {
		return a.Format(v)
	}
	return fmt.Sprintf("%g", v)
}

// Point identifies one cell of a scenario's sweep grid.
type Point struct {
	// Index is the cell's position in the scenario's point list.
	Index int `json:"index"`
	// Coords are the per-axis value indices (empty for axis-less scenarios).
	Coords []int `json:"coords,omitempty"`
	// Values are the per-axis values, parallel to Coords.
	Values []float64 `json:"values,omitempty"`
}

// At returns the value of axis i, or 0 when the point has fewer axes.
func (p Point) At(i int) float64 {
	if i < 0 || i >= len(p.Values) {
		return 0
	}
	return p.Values[i]
}

// PointResult is the structured outcome of one grid cell.
type PointResult struct {
	Point Point `json:"point"`
	// Stats is the cell's (possibly attacked) run outcome.
	Stats RunStats `json:"stats"`
	// Baseline is the attack-free twin when the scenario compares.
	Baseline *RunStats `json:"baseline,omitempty"`
	// Cmp relates Stats to Baseline when the scenario compares.
	Cmp *Comparison `json:"comparison,omitempty"`
	// Extra carries custom measurements from RunPoint scenarios.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Result is a completed scenario run: one PointResult per grid cell, in
// grid order (first axis slowest, last axis fastest).
type Result struct {
	Scenario string        `json:"scenario"`
	Points   []PointResult `json:"points"`
}

// At returns the point result with the given per-axis coordinates, or nil.
func (r *Result) At(coords ...int) *PointResult {
	for i := range r.Points {
		p := &r.Points[i]
		if len(p.Point.Coords) != len(coords) {
			continue
		}
		match := true
		for j, c := range coords {
			if p.Point.Coords[j] != c {
				match = false
				break
			}
		}
		if match {
			return p
		}
	}
	return nil
}

// Scenario declaratively specifies an experiment: how to build the world,
// what to sweep, what attack to install, and how to render the outcome.
// The zero value of every optional field means "the default": scale-derived
// base config, one layer, scale-default seeds, no attack, generic table.
type Scenario struct {
	// Name registers the scenario; lowercase, hyphenated by convention.
	Name string
	// Description is the one-line summary shown by listings.
	Description string

	// Base builds the starting configuration; nil means the scale default
	// (the population Options.Scale selects).
	Base func(o Options) world.Config
	// Mutators adjust the base configuration, in order, before axes apply.
	Mutators []ConfigMutator
	// Axes define the sweep grid as a cross product, first axis slowest.
	// A scenario with no axes runs a single point.
	Axes []Axis
	// Filter, if non-nil, keeps only grid cells it returns true for.
	Filter func(o Options, pt Point) bool

	// Attack builds a fresh adversary for one run of a point: it is invoked
	// once per seeded run, plus one probe per point whose result decides —
	// and is discarded — whether the point runs attack-free. nil, or a nil
	// return from the probe, runs the point attack-free (and lets its run
	// memoize as a baseline). The factory must therefore be a pure function
	// of its arguments.
	Attack func(o Options, cfg world.Config, pt Point) adversary.Adversary

	// Seeds overrides the scale-default seed count when positive.
	Seeds int
	// SeedsAt overrides Seeds per point (e.g. single-seed layered runs).
	SeedsAt func(o Options, pt Point) int
	// Layers stacks each run to model large collections; 0 means 1.
	Layers int
	// LayersAt overrides Layers per point.
	LayersAt func(o Options, pt Point) int

	// Compare also runs each point attack-free and derives the paper's
	// comparison metrics into PointResult.Baseline and PointResult.Cmp.
	Compare bool

	// RunPoint, if non-nil, replaces the standard executor for each point —
	// custom measurement loops (e.g. churn statistics) implement it with
	// the engine's Run* methods and fill PointResult.Extra.
	RunPoint func(ctx context.Context, e *Engine, o Options, cfg world.Config, pt Point) (PointResult, error)

	// Tables renders a completed run; nil selects the generic renderer.
	Tables func(o Options, res *Result) []*Table

	// Progress formats one per-point progress line; nil selects a generic
	// line. Empty returns suppress the line.
	Progress func(o Options, pt Point, pr PointResult) string
}

// --- Registry ---------------------------------------------------------------

var (
	regMu    sync.RWMutex
	registry = make(map[string]*Scenario)
)

// Register adds a scenario to the process-wide registry. Names must be
// non-empty and unique.
func Register(s *Scenario) error {
	if s == nil {
		return fmt.Errorf("experiment: Register(nil)")
	}
	if strings.TrimSpace(s.Name) == "" {
		return fmt.Errorf("experiment: scenario needs a name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("experiment: scenario %q already registered", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// mustRegister registers the built-in scenarios at init.
func mustRegister(s *Scenario) *Scenario {
	if err := Register(s); err != nil {
		panic(err)
	}
	return s
}

// Lookup returns the registered scenario with the given name.
func Lookup(name string) (*Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// List returns every registered scenario, sorted by name.
func List() []*Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- Execution --------------------------------------------------------------

// grid expands the scenario's axes into its point list.
func (s *Scenario) grid(o Options) ([]Point, error) {
	vals := make([][]float64, len(s.Axes))
	n := 1
	for i, ax := range s.Axes {
		vals[i] = ax.values(o)
		if len(vals[i]) == 0 {
			return nil, fmt.Errorf("experiment: scenario %q axis %q has no values", s.Name, ax.Name)
		}
		n *= len(vals[i])
	}
	points := make([]Point, 0, n)
	coords := make([]int, len(s.Axes))
	for i := 0; i < n; i++ {
		pt := Point{
			Coords: append([]int(nil), coords...),
			Values: make([]float64, len(s.Axes)),
		}
		for j, c := range pt.Coords {
			pt.Values[j] = vals[j][c]
		}
		if s.Filter == nil || s.Filter(o, pt) {
			pt.Index = len(points)
			points = append(points, pt)
		}
		// Odometer increment, last axis fastest.
		for j := len(coords) - 1; j >= 0; j-- {
			coords[j]++
			if coords[j] < len(vals[j]) {
				break
			}
			coords[j] = 0
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("experiment: scenario %q has an empty grid", s.Name)
	}
	return points, nil
}

// config builds the world configuration for one point.
func (s *Scenario) config(o Options, pt Point) world.Config {
	var cfg world.Config
	if s.Base != nil {
		cfg = s.Base(o)
	} else {
		cfg = o.baseWorld()
	}
	for _, m := range s.Mutators {
		m(&cfg)
	}
	for i, ax := range s.Axes {
		if ax.Apply != nil {
			ax.Apply(&cfg, pt.Values[i])
		}
	}
	return cfg
}

// seedsFor and layersFor resolve the per-point run shape.
func (s *Scenario) seedsFor(o Options, pt Point) int {
	if s.SeedsAt != nil {
		return s.SeedsAt(o, pt)
	}
	if s.Seeds != 0 {
		return s.Seeds
	}
	return o.seeds()
}

func (s *Scenario) layersForPt(o Options, pt Point) int {
	if s.LayersAt != nil {
		return s.LayersAt(o, pt)
	}
	if s.Layers != 0 {
		return s.Layers
	}
	return 1
}

// Points expands the scenario's sweep grid for the given options. It is the
// exported face of grid, used by external drivers (internal/harness) that
// execute points on alternative backends.
func (s *Scenario) Points(o Options) ([]Point, error) { return s.grid(o) }

// ConfigAt builds the world configuration for one grid point: base, then
// mutators, then axis applications. External drivers may further override the
// returned value before running it.
func (s *Scenario) ConfigAt(o Options, pt Point) world.Config { return s.config(o, pt) }

// RunPointOn executes one grid cell on the engine with a caller-supplied
// configuration (normally ConfigAt plus driver overrides). It is the exported
// face of the standard per-point executor.
func (s *Scenario) RunPointOn(ctx context.Context, e *Engine, o Options, pt Point, cfg world.Config) (PointResult, error) {
	return s.runPointWith(ctx, e, o, pt, cfg)
}

// Render renders a completed result with the scenario's table renderer (the
// custom one when defined, the generic table otherwise).
func (s *Scenario) Render(o Options, res *Result) []*Table {
	if s.Tables != nil {
		return s.Tables(o, res)
	}
	return []*Table{s.genericTable(o, res)}
}

// GenericTable renders a result with the generic per-point renderer
// regardless of the scenario's custom Tables hook. Custom renderers may
// assume comparison data that alternative execution backends (baseline-only
// cluster runs) do not produce; the generic renderer tolerates its absence,
// so cross-backend drivers render both sides through it.
func (s *Scenario) GenericTable(o Options, res *Result) *Table {
	return s.genericTable(o, res)
}

// runPoint executes one grid cell on the engine.
func (s *Scenario) runPoint(ctx context.Context, e *Engine, o Options, pt Point) (PointResult, error) {
	return s.runPointWith(ctx, e, o, pt, s.config(o, pt))
}

// runPointWith executes one grid cell with a prebuilt configuration.
func (s *Scenario) runPointWith(ctx context.Context, e *Engine, o Options, pt Point, cfg world.Config) (PointResult, error) {
	if s.RunPoint != nil {
		pr, err := s.RunPoint(ctx, e, o, cfg, pt)
		pr.Point = pt
		return pr, err
	}
	seeds := s.seedsFor(o, pt)
	layers := s.layersForPt(o, pt)
	if seeds < 1 {
		return PointResult{}, fmt.Errorf("scenario %q point %d: %w", s.Name, pt.Index, errSeeds(seeds))
	}
	if layers < 1 {
		return PointResult{}, fmt.Errorf("scenario %q point %d: %w", s.Name, pt.Index, errLayers(layers))
	}
	run := func(mk func() adversary.Adversary) (RunStats, error) {
		if layers > 1 {
			return e.RunLayeredAveraged(ctx, cfg, mk, layers, seeds)
		}
		return e.RunAveraged(ctx, cfg, mk, seeds)
	}
	// Probe the attack factory once: a nil adversary means the point runs
	// attack-free (and its run memoizes as a baseline).
	var mk func() adversary.Adversary
	if s.Attack != nil && s.Attack(o, cfg, pt) != nil {
		mk = func() adversary.Adversary { return s.Attack(o, cfg, pt) }
	}
	pr := PointResult{Point: pt}
	var err error
	if mk != nil {
		// Attack first: attack runs are independent and fill the pool while
		// the shared baseline's single memo flight is in progress.
		if pr.Stats, err = run(mk); err != nil {
			return PointResult{}, err
		}
	}
	if mk == nil || s.Compare {
		baseline, err := run(nil)
		if err != nil {
			return PointResult{}, err
		}
		if mk == nil {
			pr.Stats = baseline
		}
		if s.Compare {
			pr.Baseline = &baseline
			cmp := Compare(pr.Stats, baseline)
			pr.Cmp = &cmp
		}
	}
	return pr, nil
}

// RunScenario executes a scenario's full sweep grid across the worker-pool
// engine and returns the structured per-point results in grid order. The
// context cancels promptly: runs not yet started are skipped and ctx.Err()
// is returned (in-flight simulations finish and are discarded).
func RunScenario(ctx context.Context, spec *Scenario, o Options) (*Result, error) {
	if spec == nil {
		return nil, fmt.Errorf("experiment: RunScenario(nil scenario)")
	}
	ctx = orBackground(ctx)
	points, err := spec.grid(o)
	if err != nil {
		return nil, err
	}
	e := o.engine()
	prs, err := gather(len(points), func(i int) (PointResult, error) {
		return spec.runPoint(ctx, e, o, points[i])
	}, func(i int, pr PointResult) {
		if line := spec.progressLine(o, points[i], pr, len(points)); line != "" {
			o.progress("%s", line)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{Scenario: spec.Name, Points: prs}, nil
}

// progressLine renders one per-point progress line.
func (s *Scenario) progressLine(o Options, pt Point, pr PointResult, total int) string {
	if s.Progress != nil {
		return s.Progress(o, pt, pr)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d/%d", s.Name, pt.Index+1, total)
	for i, ax := range s.Axes {
		fmt.Fprintf(&b, " %s=%s", ax.Name, ax.format(pt.At(i)))
	}
	fmt.Fprintf(&b, " afp=%s", fmtProb(pr.Stats.AccessFailure))
	return b.String()
}

// Run executes the scenario and renders its tables — the custom renderer
// when the scenario defines one, the generic table otherwise.
func (s *Scenario) Run(ctx context.Context, o Options) ([]*Table, error) {
	res, err := RunScenario(ctx, s, o)
	if err != nil {
		return nil, err
	}
	if s.Tables != nil {
		return s.Tables(o, res), nil
	}
	return []*Table{s.genericTable(o, res)}, nil
}

// genericTable renders a scenario without a custom renderer: one row per
// point — axis values, the standard run metrics, comparison ratios when the
// scenario compares, and any Extra measurements in sorted key order.
func (s *Scenario) genericTable(o Options, res *Result) *Table {
	t := &Table{ID: s.Name, Title: s.Description}
	if t.Title == "" {
		t.Title = "scenario sweep"
	}
	for _, ax := range s.Axes {
		t.Columns = append(t.Columns, ax.Name)
	}
	t.Columns = append(t.Columns, "access-failure", "mean-gap(days)", "polls-ok", "alarms")
	if s.Compare {
		t.Columns = append(t.Columns, "delay-ratio", "coeff-friction", "cost-ratio")
	}
	// Extra columns are the union across points: RunPoint scenarios may
	// report different measurements per point (absent ones render as "-").
	extraSet := make(map[string]bool)
	for _, pr := range res.Points {
		for k := range pr.Extra {
			extraSet[k] = true
		}
	}
	extraKeys := make([]string, 0, len(extraSet))
	for k := range extraSet {
		extraKeys = append(extraKeys, k)
	}
	sort.Strings(extraKeys)
	t.Columns = append(t.Columns, extraKeys...)
	for _, pr := range res.Points {
		var row []Cell
		for i, ax := range s.Axes {
			row = append(row, Cell{Text: ax.format(pr.Point.At(i)), Value: pr.Point.At(i)})
		}
		row = append(row,
			Prob(pr.Stats.AccessFailure),
			Num("%.1f", pr.Stats.MeanSuccessGap),
			Num("%.0f", pr.Stats.SuccessfulPolls),
			Num("%.0f", pr.Stats.Alarms))
		if s.Compare {
			var c Comparison
			if pr.Cmp != nil {
				c = *pr.Cmp
			}
			row = append(row, Ratio(c.DelayRatio), Ratio(c.Friction), Ratio(c.CostRatio))
		}
		for _, k := range extraKeys {
			if v, ok := pr.Extra[k]; ok {
				row = append(row, Num("%g", v))
			} else {
				row = append(row, Str("-"))
			}
		}
		t.AddCells(row...)
	}
	return t
}

// runRegistered runs a built-in scenario for the legacy wrapper functions.
func runRegistered(name string, o Options) ([]*Table, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiment: scenario %q not registered", name)
	}
	return s.Run(context.Background(), o)
}

// oneTable unwraps single-table scenario runs for the legacy wrappers.
func oneTable(ts []*Table, err error) (*Table, error) {
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}
