package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at its smallest size, untraced and traced,
// and checks the result against BENCHMARK.json: every end-to-end metric
// with its unit, every per-layer metric with its unit, and non-zero self
// time in the layers each workload exists to exercise. It also checks that
// the simulator's deterministic counts repeat exactly across two runs at a
// seed other than the goldens'.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, including two 5k-peer simulations")
	}
	spec, err := loadBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	results := t.TempDir()

	if len(spec.EndToEnd) != len(endToEndUnits) || len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics; the benchmark reports %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndUnits), len(layerMetrics))
	}
	// The layers each workload must show self time in, even at its
	// smallest size.
	busy := map[string][]string{
		"sim-table1":   {"sched", "experiment", "sim", "protocol", "world", "netsim"},
		"sim-capacity": {"sim", "protocol", "netsim", "world", "reputation"},
		"node-cluster": {"content", "session"},
		"store-churn":  {"store"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seconds := 2 * time.Second
			if w.name == "node-cluster" {
				seconds = 6 * time.Second // enough polls for the profile to see the layers
			}
			out, err := runWorkload(w, 0, seconds, false, true, results)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("untraced run: correct=%v attempted=%d", out.Correct, out.Attempted)
			}
			for _, m := range spec.EndToEnd {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(out.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d", len(out.Metrics), len(spec.EndToEnd))
			}

			traced, err := runWorkload(w, 0, seconds, true, true, results)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Errorf("traced run is incorrect")
			}
			for _, m := range spec.PerLayer {
				got, ok := traced.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(traced.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(traced.Metrics), len(spec.PerLayer))
			}
			for _, layer := range busy[w.name] {
				if traced.Metrics[layer+".self_s"].Value <= 0 {
					t.Errorf("traced run shows no self time in %s", layer)
				}
			}
			if v := traced.Metrics["store.create_busy_s"].Value; (v > 0) != (w.name == "store-churn") {
				t.Errorf("store.create_busy_s = %v; it belongs to store-churn alone", v)
			}
			if traced.Metrics["trace.spans"].Value <= 0 {
				t.Errorf("traced run recorded no spans")
			}
		})
	}

	// Two traced runs at a seed without a golden must do exactly the same
	// work.
	t.Run("sim-table1-determinism", func(t *testing.T) {
		w, _ := lookupWorkload("sim-table1")
		var runs []*outcome
		for i := 0; i < 2; i++ {
			out, err := runWorkload(w, 7, time.Second, true, true, results)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct {
				t.Fatalf("run %d at seed 7 is incorrect", i)
			}
			runs = append(runs, out)
		}
		for _, name := range []string{"sim.events", "netsim.msgs_sent", "protocol.polls_started", "effort.defender_effort_s"} {
			a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
			if a != b || a <= 0 {
				t.Errorf("%s: %v then %v; want the same positive count", name, a, b)
			}
		}
	})

	// Every result file records the host and toolchain.
	entries, err := os.ReadDir(results)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no result files written: %v", err)
	}
	data, err := os.ReadFile(results + "/" + entries[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"nproc"`, `"gomaxprocs"`, `"cpu_model"`, `"go_version"`, `"commit"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("result file lacks %s", key)
		}
	}
}
