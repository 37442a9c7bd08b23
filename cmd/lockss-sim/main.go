// Command lockss-sim regenerates the evaluation figures and tables of
// "Attrition Defenses for a Peer-to-Peer Digital Preservation System"
// (USENIX 2005) from the simulator in this repository, and runs any
// scenario registered with the declarative scenario API.
//
// Usage:
//
//	lockss-sim -list                     # list registered scenarios
//	lockss-sim -figure 2                 # one artifact: 2..8, table1, ablations
//	lockss-sim -figure all               # everything
//	lockss-sim -scenario figure2,table1  # run scenarios by registry name
//	lockss-sim -output json              # text | json | csv
//	lockss-sim -scale paper              # tiny | small | paper | large | huge
//	lockss-sim -workers 8                # parallel runs (default: all cores)
//	lockss-sim -progress                 # periodic virtual-time progress lines
//	lockss-sim -seeds 3 -seed 42 -v
//
// Output is bit-identical at any -workers value: runs are scheduled across
// the worker pool but seeded, combined and printed exactly as the serial
// path would. SIGINT/SIGTERM cancel the run: queued simulations are skipped
// and the command exits promptly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lockss/internal/experiment"
	"lockss/internal/sim"
)

// selection pairs a registry name with the table index the legacy -figure
// spellings select; -1 selects all of the scenario's tables.
type selection struct {
	scenario string
	table    int
}

func selections(figure string) ([]selection, error) {
	all := []selection{
		{"figure2", -1},
		{"figures-pipe-stoppage", -1},
		{"figures-admission-flood", -1},
		{"table1", -1},
		{"ablation-refractory", -1},
		{"ablation-drop-prob", -1},
		{"ablation-introductions", -1},
		{"ablation-desynchronization", -1},
		{"ablation-effort-balancing", -1},
		{"extension-churn", -1},
		{"extension-adaptive", -1},
		{"extension-combined", -1},
	}
	switch figure {
	case "all":
		return all, nil
	case "2":
		return []selection{{"figure2", -1}}, nil
	case "3", "4", "5":
		return []selection{{"figures-pipe-stoppage", int(figure[0] - '3')}}, nil
	case "6", "7", "8":
		return []selection{{"figures-admission-flood", int(figure[0] - '6')}}, nil
	case "table1":
		return []selection{{"table1", -1}}, nil
	case "ablations":
		return all[4:9], nil
	case "extensions":
		return all[9:12], nil
	}
	return nil, fmt.Errorf("unknown figure %q", figure)
}

// emitter writes tables in the selected output format.
func emitter(format string) (func(t *experiment.Table) error, error) {
	switch format {
	case "text":
		return func(t *experiment.Table) error { t.Fprint(os.Stdout); return nil }, nil
	case "json":
		// One JSON object per table (JSON Lines).
		return func(t *experiment.Table) error { return t.WriteJSON(os.Stdout) }, nil
	case "csv":
		// Tables are separated by a "# id: title" comment line and a blank
		// line, so a multi-table run stays splittable.
		return func(t *experiment.Table) error {
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			if err := t.WriteCSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			return nil
		}, nil
	}
	return nil, fmt.Errorf("unknown output format %q", format)
}

// usageError is a command-line mistake; it exits with status 2, as a bad
// flag does.
type usageError struct{ error }

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "lockss-sim: %v\n", err)
		if errors.As(err, &usageError{}) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run executes one invocation. It returns instead of exiting, so the
// deferred profile writers run on every path, errors and cancels included.
func run(args []string) error {
	fs := flag.NewFlagSet("lockss-sim", flag.ExitOnError)
	var (
		figure   = fs.String("figure", "", "legacy artifact selector: 2,3,4,5,6,7,8,table1,ablations,extensions,all")
		scenario = fs.String("scenario", "", "comma-separated registered scenario names to run (see -list)")
		list     = fs.Bool("list", false, "list registered scenarios and exit")
		output   = fs.String("output", "text", "output format: text, json, csv")
		scale    = fs.String("scale", "small", "experiment fidelity: tiny, small, paper, large, huge")
		seeds    = fs.Int("seeds", 0, "seeds per data point (0 = scale default)")
		seed     = fs.Uint64("seed", 0, "base seed offset")
		workers  = fs.Int("workers", 0, "concurrent simulation runs (<=0 = GOMAXPROCS, i.e. all usable cores)")
		progress = fs.Bool("progress", false, "print periodic virtual-time/events-executed progress lines to stderr")
		verbose  = fs.Bool("v", false, "print per-data-point progress")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof  = fs.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	fs.Parse(args) // exits on a bad flag, before any profile is started

	// Profiling hooks, so perf work can profile real figure runs instead of
	// reduced benchmark stand-ins. Inspect with `go tool pprof`.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle live objects so the heap profile is current
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "lockss-sim: writing memory profile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, s := range experiment.List() {
			fmt.Printf("%-28s %s\n", s.Name, s.Description)
		}
		return nil
	}

	// One engine for the whole invocation: running several scenarios reuses
	// memoized baseline runs across them.
	eng := experiment.NewEngine(*workers)
	opts := experiment.Options{Seeds: *seeds, BaseSeed: *seed, Engine: eng}
	switch strings.ToLower(*scale) {
	case "tiny":
		opts.Scale = experiment.ScaleTiny
	case "small":
		opts.Scale = experiment.ScaleSmall
	case "paper":
		opts.Scale = experiment.ScalePaper
	case "large":
		opts.Scale = experiment.ScaleLarge
	case "huge":
		opts.Scale = experiment.ScaleHuge
	default:
		return usageError{fmt.Errorf("unknown scale %q", *scale)}
	}
	if *progress {
		// Rate-limited one-liners: virtual time reached and events executed
		// by the reporting run. Concurrent runs interleave; each line stands
		// alone.
		var lastPrint atomic.Int64
		experiment.ProgressSink = func(vt sim.Time, events uint64) {
			now := time.Now().UnixNano()
			last := lastPrint.Load()
			if now-last < 2*int64(time.Second) || !lastPrint.CompareAndSwap(last, now) {
				return
			}
			fmt.Fprintf(os.Stderr, "progress: vt=%.1fd events=%dM\n",
				float64(vt)/float64(sim.Day), events>>20)
		}
	}
	if *verbose {
		start := time.Now()
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), fmt.Sprintf(format, args...))
		}
	}

	emit, err := emitter(strings.ToLower(*output))
	if err != nil {
		return err
	}

	// Resolve what to run: explicit -scenario names win; -figure (default
	// "all" when neither flag is given) maps onto the same registry.
	var sels []selection
	switch {
	case *scenario != "" && *figure != "":
		return fmt.Errorf("-scenario and -figure are mutually exclusive")
	case *scenario != "":
		for _, name := range strings.Split(*scenario, ",") {
			sels = append(sels, selection{strings.TrimSpace(name), -1})
		}
	default:
		f := strings.ToLower(*figure)
		if f == "" {
			f = "all"
		}
		sels, err = selections(f)
		if err != nil {
			return err
		}
	}

	// SIGINT/SIGTERM cancel the run; queued simulations are skipped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, sel := range sels {
		spec, ok := experiment.Lookup(sel.scenario)
		if !ok {
			return fmt.Errorf("scenario %q not registered (try -list)", sel.scenario)
		}
		tables, err := spec.Run(ctx, opts)
		if err != nil {
			return err
		}
		if sel.table >= 0 {
			tables = tables[sel.table : sel.table+1]
		}
		for _, t := range tables {
			if err := emit(t); err != nil {
				return err
			}
		}
	}

	if *verbose {
		hits, misses := eng.MemoStats()
		fmt.Fprintf(os.Stderr, "engine: %d workers; baseline runs computed=%d memo-hits=%d\n",
			eng.Workers(), misses, hits)
	}
	return nil
}
