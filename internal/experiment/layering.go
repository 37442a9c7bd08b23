package experiment

import (
	"context"
	"math"
	"sort"

	"lockss/internal/adversary"
	"lockss/internal/prng"
	"lockss/internal/sched"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// The paper simulates 600-AU collections by layering 50-AU runs: "layer n is
// a simulation of 50 AUs on peers already running a realistic workload of
// 50(n-1) AUs" (§6.3). We reproduce the technique with a statistical replay:
// from the first layer we measure each population's task arrival rate and
// mean task duration, and feed layer n a deterministic Poisson background
// load of (n-1) layers' intensity through the scheduler's Background hook.
// The substitution (sampled rather than verbatim task replay) preserves the
// contention profile while keeping memory bounded; docs/ARCHITECTURE.md
// records it.

// bgLoad deterministically synthesizes background busy intervals and serves
// them to a schedule as a sched.Background stream. It is pure: the tasks for
// a bucket depend only on (seed, bucket index), so repeated schedule queries
// see a consistent timeline — which also makes the buckets memoizable.
// Schedule checks hit the same handful of buckets over and over as simulated
// time advances, so each bucket is generated once and a query's cursor walks
// the cached buckets in place, as far as the query needs.
type bgLoad struct {
	seed      uint64
	ratePerNs float64 // expected task arrivals per nanosecond
	meanDurNs float64
	bucket    int64 // bucket width in nanoseconds

	cache map[int64][]sched.Task
}

// poisson draws a Poisson variate with mean lambda (Knuth's method; lambda
// here is small — a handful of tasks per bucket).
func poisson(rnd *prng.Source, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rnd.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 { // guard against pathological lambda
			return k
		}
	}
}

// bucketTasks generates (or recalls) bucket k's tasks, sorted by start. The
// draws are identical to generating them inside a query, so memoization is
// invisible to replay.
func (b *bgLoad) bucketTasks(k int64) []sched.Task {
	if ts, ok := b.cache[k]; ok {
		return ts
	}
	rnd := prng.New(b.seed ^ uint64(k)*0x9e3779b97f4a7c15)
	n := poisson(rnd, b.ratePerNs*float64(b.bucket))
	var ts []sched.Task
	for i := 0; i < n; i++ {
		start := sched.Time(k*b.bucket + rnd.Int63n(b.bucket))
		dur := rnd.ExpFloat64(b.meanDurNs)
		if dur < 1 {
			dur = 1
		}
		ts = append(ts, sched.Task{Start: start, End: start + sched.Time(dur), Label: "bg"})
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Start < ts[j].Start })
	if b.cache == nil {
		b.cache = make(map[int64][]sched.Task)
	}
	b.cache[k] = ts
	return ts
}

// Next implements sched.Background. A query over [From, To) sees the tasks
// of buckets floor(From/bucket) through floor((To-1)/bucket) that overlap the
// window; a task from an earlier bucket that straddles From stays invisible.
// Buckets ascend and each is start-sorted, so the stream is start-ordered;
// tasks may overlap, since durations are exponential. The cursor's Bucket
// counts buckets past the first and Index is the position within it.
func (b *bgLoad) Next(c sched.BgCursor) (sched.Task, sched.BgCursor, bool) {
	if b.ratePerNs <= 0 || c.To <= c.From {
		return sched.Task{}, c, false
	}
	first := int64(c.From) / b.bucket
	last := int64(c.To-1) / b.bucket
	for k := first + c.Bucket; k <= last; k++ {
		ts := b.bucketTasks(k)
		for c.Index < len(ts) {
			t := ts[c.Index]
			c.Index++
			if t.Start >= c.To {
				return sched.Task{}, c, false // every later task starts later still
			}
			if t.End <= c.From {
				continue
			}
			return t, c, true
		}
		c.Bucket++
		c.Index = 0
	}
	return sched.Task{}, c, false
}

// measureLoad extracts the mean per-peer task rate and duration of a run.
func measureLoad(w *world.World) (ratePerNs, meanDurNs float64) {
	var count uint64
	var total sched.Duration
	for _, p := range w.Peers {
		count += p.Schedule().CommittedCount
		total += p.Schedule().CommittedTotal
	}
	if count == 0 {
		return 0, 0
	}
	horizon := float64(w.Cfg.Duration) * float64(len(w.Peers))
	return float64(count) / horizon, float64(total) / float64(count)
}

// combineLayers aggregates per-layer stats into collection-wide stats:
// fractions average, counts and efforts sum.
func combineLayers(layers []RunStats) RunStats {
	var out RunStats
	n := float64(len(layers))
	if n == 0 {
		return out
	}
	var gapW float64
	for _, r := range layers {
		out.AccessFailure += r.AccessFailure / n
		out.SuccessfulPolls += r.SuccessfulPolls
		out.TotalPolls += r.TotalPolls
		out.DefenderEffort += r.DefenderEffort
		out.AttackerEffort += r.AttackerEffort
		out.Alarms += r.Alarms
		out.DamageEvents += r.DamageEvents
		out.RepairsFixed += r.RepairsFixed
		if !math.IsInf(r.MeanSuccessGap, 1) && r.SuccessfulPolls > 0 {
			out.MeanSuccessGap += r.MeanSuccessGap * r.SuccessfulPolls
			gapW += r.SuccessfulPolls
		}
	}
	if gapW > 0 {
		out.MeanSuccessGap /= gapW
	} else {
		out.MeanSuccessGap = math.Inf(1)
	}
	if out.SuccessfulPolls > 0 {
		out.EffortPerPoll = out.DefenderEffort / out.SuccessfulPolls
	}
	return out
}

// runOneLayer executes one layer's world on the calling goroutine. Layer 0
// measures and returns the population's task load; later layers carry the
// replayed background load of the layers beneath them (ratePerNs scaled by
// the layer index, as the serial implementation did).
func runOneLayer(cfg world.Config, mkAttack func() adversary.Adversary, layer int,
	ratePerNs, meanDurNs float64) (RunStats, float64, float64, error) {
	c := cfg
	c.Seed = cfg.Seed + uint64(layer)*7_919
	w, err := world.New(c)
	if err != nil {
		return RunStats{}, 0, 0, err
	}
	if layer > 0 {
		for i, p := range w.Peers {
			bg := &bgLoad{
				seed:      c.Seed ^ uint64(i)<<32 ^ 0xb6,
				ratePerNs: ratePerNs * float64(layer),
				meanDurNs: meanDurNs,
				bucket:    int64(sim.Day),
			}
			p.Schedule().Background = bg
		}
	}
	if mkAttack != nil {
		mkAttack().Install(w)
	}
	w.Run()
	if layer == 0 {
		ratePerNs, meanDurNs = measureLoad(w)
	}
	return statsFromWorld(w), ratePerNs, meanDurNs, nil
}

// RunLayered executes `layers` stacked runs of cfg, each carrying the
// statistically replayed background load of the layers beneath it, and
// aggregates. cfg.AUs is the per-layer collection size. Layers 1..n-1 run
// concurrently on the process-wide worker pool. layers must be at least 1.
func RunLayered(ctx context.Context, cfg world.Config, mkAttack func() adversary.Adversary, layers int) (RunStats, error) {
	return newSharedEngine().RunLayered(ctx, cfg, mkAttack, layers)
}

// RunLayeredAveraged repeats RunLayered across seeds; both layers and seeds
// must be at least 1.
func RunLayeredAveraged(ctx context.Context, cfg world.Config, mkAttack func() adversary.Adversary, layers, seeds int) (RunStats, error) {
	return newSharedEngine().RunLayeredAveraged(ctx, cfg, mkAttack, layers, seeds)
}
