// Command lockssbench is the repository's benchmark: four workloads that
// drive the simulator, real nodes and the durable store through their public
// functions, check that each workload's outputs are correct, and print every
// end-to-end metric by name with its unit. A traced run (-trace 1) reports
// the per-layer metrics instead. See README.md in this directory for what
// each workload is for and which layer metric should move which end-to-end
// metric.
//
//	lockssbench -workload sim-table1 -seed 0 -seconds 15 -trace 0
//	lockssbench compare <results-dir-A> <results-dir-B>
//
// Run it from the repository root (lockssbench/run.sh builds and runs it):
// it reads the scenario goldens and BENCHMARK.json from there and keeps its
// scratch files and result files under .bench_out/.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line: the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's workload settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// smallest shrinks the workload to its smallest size (smoke test).
	smallest bool
	// work is a scratch directory inside the checkout, removed afterwards.
	work string
	// spanPath receives the traced run's spans.
	spanPath string
}

// runReport is what a workload hands back.
type runReport struct {
	correct   bool
	attempted int64
	failed    int64
	meas      measurement
	// layers holds per-layer values (traced runs only), keyed by the names
	// in layerMetrics.
	layers map[string]float64
	// samples counts the samples behind each timing, for the result file.
	samples map[string]int
	notes   []string
}

type workload struct {
	name string
	run  func(cfg runConfig) (*runReport, error)
}

// workloads: BENCHMARK.json lists the first three; store-churn runs on
// demand (README.md says why each exists, and why store-churn is not gated).
var workloads = []workload{
	{"sim-table1", runSimTable1},
	{"sim-capacity", runSimCapacity},
	{"node-cluster", runNodeCluster},
	{"store-churn", runStoreChurn},
}

// endToEndUnits lists the end-to-end metrics every workload reports.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// layerMetrics lists the per-layer metrics every traced run reports, with
// zero where a workload does not run the layer.
var layerMetrics = []struct{ name, unit string }{
	{"sched.self_s", "s"},
	{"experiment.self_s", "s"},
	{"sim.self_s", "s"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"runtime.gc_self_s", "s"},
	{"runtime.self_s", "s"},
	{"runtime.mallocs", "count"},
	{"runtime.alloc_mb", "MB"},
	{"protocol.self_s", "s"},
	{"protocol.receive_calls", "count"},
	{"protocol.receive_busy_s", "s"},
	{"protocol.polls_started", "count"},
	{"protocol.poll_success_ratio", "ratio"},
	{"protocol.invite_refuse_ratio", "ratio"},
	{"protocol.votes_supplied", "count"},
	{"reputation.self_s", "s"},
	{"netsim.self_s", "s"},
	{"netsim.msgs_sent", "count"},
	{"netsim.msgs_dropped", "count"},
	{"world.self_s", "s"},
	{"metrics.self_s", "s"},
	{"adversary.self_s", "s"},
	{"prng.self_s", "s"},
	{"effort.self_s", "s"},
	{"effort.defender_effort_s", "s"},
	{"content.self_s", "s"},
	{"content.vote_hash_calls", "count"},
	{"content.vote_hash_mb", "MB"},
	{"content.vote_hash_busy_s", "s"},
	{"store.self_s", "s"},
	{"store.create_busy_s", "s"},
	{"store.apply_repair_busy_s", "s"},
	{"store.fsyncs", "count"},
	{"store.manifest_writes", "count"},
	{"store.manifest_commits", "count"},
	{"store.blocks_scanned", "count"},
	{"store.ingest_mb_per_s", "MB/s"},
	{"store.scrub_mb_per_s", "MB/s"},
	{"store.repair_p50_ms", "ms"},
	{"wire.self_s", "s"},
	{"session.self_s", "s"},
	{"node.self_s", "s"},
	{"node.transport_sent", "count"},
	{"node.transport_drop_ratio", "ratio"},
	{"node.queue_wait_p95_ms", "ms"},
	{"node.offered_polls_per_s", "1/s"},
	{"node.polls_ok_per_s", "1/s"},
	{"node.poll_p50_ms", "ms"},
	{"node.poll_p95_ms", "ms"},
	{"node.vote_p50_ms", "ms"},
	{"node.vote_p95_ms", "ms"},
	{"node.poll_fail_share", "ratio"},
	{"telemetry.self_s", "s"},
	{"bench.self_s", "s"},
	{"trace.overhead_ms_per_op", "ms"},
	{"trace.overhead_share", "ratio"},
	{"trace.spans", "count"},
}

// hostInfo identifies where and what was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// resultFile is the full record one run leaves under the results directory;
// compare mode reads these.
type resultFile struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Started  string         `json:"started"`
	Host     hostInfo       `json:"host"`
	Outcome  outcome        `json:"outcome"`
	Samples  map[string]int `json:"samples"`
	// OpQuantilesMS describes the op latency distribution of an untraced
	// run beyond the two quantiles it reports.
	OpQuantilesMS map[string]float64 `json:"op_quantiles_ms,omitempty"`
	Notes         []string           `json:"notes,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: lockssbench compare <results-dir-A> <results-dir-B>")
			os.Exit(2)
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "lockssbench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run: sim-table1, sim-capacity, node-cluster or store-churn")
		seed    = flag.Uint64("seed", 0, "workload seed; 0 is the seed the scenario goldens were recorded at")
		seconds = flag.Int("seconds", 15, "how long to measure")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of the end-to-end metrics")
		results = flag.String("results", filepath.Join(".bench_out", "results"), "directory for the run's result file")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "lockssbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "lockssbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	out, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, false, *results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockssbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockssbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one workload, checks its report, writes the result file
// and returns the result line.
func runWorkload(w workload, seed uint64, seconds time.Duration, traced, smallest bool, resultsDir string) (*outcome, error) {
	// The goldens and the build live in the checkout; a directory without
	// them cannot be measured.
	if _, err := os.Stat(filepath.Join("internal", "experiment", "testdata", "golden")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	// A stuck run must not outlive the time a run is allowed.
	watchdog := time.AfterFunc(seconds+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "lockssbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	started := time.Now()
	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_out", "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg := runConfig{seed: seed, seconds: seconds, trace: traced, smallest: smallest, work: work}
	if traced {
		cfg.spanPath = filepath.Join(".bench_out", "spans", fmt.Sprintf("%s-seed%d-%d.jsonl", w.name, seed, started.UnixNano()))
	}
	rep, err := w.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	out := &outcome{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if traced {
		for _, l := range layerMetrics {
			out.Metrics[l.name] = metric{rep.layers[l.name], l.unit}
		}
	} else {
		e2e := rep.meas.endToEnd()
		for _, m := range endToEndUnits {
			v, ok := e2e[m.name]
			if !ok || v.Value <= 0 {
				// A metric that could not be measured is a failed run,
				// never a zero.
				return nil, fmt.Errorf("%s: metric %s not measured (%d ops in %v)", w.name, m.name, rep.meas.ops, rep.meas.window)
			}
			out.Metrics[m.name] = v
		}
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operations attempted", w.name)
	}
	printSummary(os.Stderr, w.name, out, rep)

	res := resultFile{
		Workload: w.name, Seed: seed, Seconds: seconds.Seconds(), Trace: traced,
		Started: started.UTC().Format(time.RFC3339), Host: host(), Outcome: *out,
		Samples: rep.samples, Notes: rep.notes,
	}
	if !traced {
		lat := millis(rep.meas.opLat)
		res.OpQuantilesMS = map[string]float64{}
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
			res.OpQuantilesMS[fmt.Sprintf("p%g", 100*q)] = quantile(lat, q)
		}
	}
	if err := writeResult(resultsDir, res, started); err != nil {
		return nil, err
	}
	return out, nil
}

func printSummary(f *os.File, name string, out *outcome, rep *runReport) {
	fmt.Fprintf(f, "%s: correct=%v attempted=%d failed=%d\n", name, out.Correct, out.Attempted, out.Failed)
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.Metrics[k]
		fmt.Fprintf(f, "  %-30s %14.6g %s\n", k, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(rep.samples))
	for k := range rep.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "  samples %-22s %d\n", k, rep.samples[k])
	}
	for _, n := range rep.notes {
		fmt.Fprintf(f, "  note: %s\n", n)
	}
}

func writeResult(dir string, res resultFile, started time.Time) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if res.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", res.Workload, res.Seed, trace, started.UnixNano()))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// host describes the machine, toolchain and source revision.
func host() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not built from a git checkout)",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}
