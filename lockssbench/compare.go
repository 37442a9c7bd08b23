package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads every result file in dir, keyed by workload and then
// by whether the run was traced.
func loadResults(dir string) (map[string]map[bool][]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	out := map[string]map[bool][]resultFile{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[bool][]resultFile{}
		}
		out[r.Workload][r.Trace] = append(out[r.Workload][r.Trace], r)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile by the
// rule of Python's statistics.quantiles(xs, n=4) (its default, "exclusive"
// method), the rule the bounds in BENCHMARK.json were chosen by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	// Cut point i lies at 1-based position i(n+1)/4 of the sorted values,
	// interpolated between its neighbours (extrapolated at the ends).
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict judges side B against side A for one metric. worse is the share
// by which B's median is worse than A's (negative when better); spread is
// the wider of the two sides' quartile distance over its median.
func verdict(a, b []float64, higherBetter bool, bound float64) (delta float64, v string) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	if am == 0 {
		return 0, "n/a (zero median)"
	}
	delta = (bm - am) / am
	worse := delta
	if higherBetter {
		worse = -delta
	}
	if bound <= 0 {
		if worse == 0 {
			return delta, "same"
		}
		return delta, "no bound"
	}
	spread := (aq3 - aq1) / am
	if bm != 0 {
		spread = max(spread, (bq3-bq1)/bm)
	}
	// Every B run better than every A run settles it whatever the spread.
	if allBetter(a, b, higherBetter) {
		return delta, "better"
	}
	if spread > bound {
		return delta, "unresolved"
	}
	switch {
	case worse > bound:
		return delta, "worse"
	case -worse > spread:
		return delta, "better"
	}
	return delta, "within bound"
}

func allBetter(a, b []float64, higherBetter bool) bool {
	amin, amax := a[0], a[0]
	for _, x := range a {
		amin, amax = min(amin, x), max(amax, x)
	}
	for _, y := range b {
		if higherBetter && y <= amax || !higherBetter && y >= amin {
			return false
		}
	}
	return true
}

// compare prints, for each workload, one row per metric: each side's
// median and quartiles, the delta and a verdict against the metric's bound.
func compare(w io.Writer, dirA, dirB string) error {
	spec, err := loadBenchSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	A, err := loadResults(dirA)
	if err != nil {
		return err
	}
	B, err := loadResults(dirB)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(A))
	for n := range A {
		if _, ok := B[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	type row struct {
		name, unit, better string
		bound              float64
	}
	var e2e, layers []row
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, row{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, row{m.Name, m.Unit, m.Better, 0})
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			ra, rb := A[name][traced], B[name][traced]
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			rows := append([]row(nil), e2e...)
			kind := "end to end"
			if traced {
				rows, kind = layers, "per layer (traced)"
			}
			fmt.Fprintf(w, "== %s, %s: %d runs vs %d runs ==\n", name, kind, len(ra), len(rb))
			fmt.Fprintf(w, "%-30s %-6s %-32s %-32s %9s  %s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
			if !traced {
				// The op latency tail, reported without a bound: on a shared
				// host it moves with the neighbours more than with the code.
				for _, q := range []string{"p90", "p95", "p99"} {
					rows = append(rows, row{name: "op_" + q + "_ms", unit: "ms", better: "lower"})
				}
			}
			for _, r := range rows {
				a, b := values(ra, r.name), values(rb, r.name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				aq1, am, aq3 := quartiles(a)
				bq1, bm, bq3 := quartiles(b)
				delta, v := verdict(a, b, r.better == "higher", r.bound)
				fmt.Fprintf(w, "%-30s %-6s %-32s %-32s %+8.1f%%  %s\n", r.name, r.unit,
					fmt.Sprintf("%.4g [%.4g, %.4g]", am, aq1, aq3), fmt.Sprintf("%.4g [%.4g, %.4g]", bm, bq1, bq3), 100*delta, v)
			}
		}
	}
	return nil
}

// values collects one metric across runs: a reported metric, or a
// quantile of the op latency ("op_p95_ms") from the result files.
func values(rs []resultFile, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Outcome.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if v, ok := r.OpQuantilesMS[strings.TrimSuffix(strings.TrimPrefix(name, "op_"), "_ms")]; ok {
			out = append(out, v)
		}
	}
	return out
}
