package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as Python's statistics.quantiles with
// method="inclusive"). xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, so callers may keep their order.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// heapSampler tracks the peak of the live Go heap (the bytes the latest
// garbage collection marked) while it runs: the memory the program needs at
// its high-water mark. Unlike the heap's total, which also holds garbage
// not yet collected, it does not depend on where a sample falls in the
// collector's cycle.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapLive = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapLive}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > 0 {
			h.mu.Lock()
			if v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// allocCounters reads the runtime's cumulative allocation counters.
func allocCounters() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// measurement is what one workload run measured with tracing off: the
// inputs of every end-to-end metric.
type measurement struct {
	// setups are the durations of the repeated set-ups.
	setups []time.Duration
	// ops counts completed units of work in the measured window; opLat holds
	// the host time each one took.
	ops   int64
	opLat []time.Duration
	// window is the measured wall time and cpu the process CPU spent in it.
	window time.Duration
	cpu    time.Duration
	// peakHeapMB is the heap high-water mark over the measured window.
	peakHeapMB float64
}

// endToEnd renders a measurement as the end-to-end metrics.
func (m *measurement) endToEnd() map[string]metric {
	setups := make([]float64, len(m.setups))
	for i, d := range m.setups {
		setups[i] = d.Seconds()
	}
	lat := millis(m.opLat)
	out := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"peak_heap_mb": {m.peakHeapMB, "MB"},
		"op_p50_ms":    {quantile(lat, 0.50), "ms"},
	}
	if m.window > 0 {
		out["ops_per_s"] = metric{float64(m.ops) / m.window.Seconds(), "1/s"}
	}
	if m.ops > 0 {
		out["cpu_ms_per_op"] = metric{cpuMsPerOp(m.cpu, m.ops), "ms"}
	}
	return out
}

// cpuMsPerOp is CPU milliseconds per op; no ops counts as one.
func cpuMsPerOp(cpu time.Duration, ops int64) float64 {
	return float64(cpu) / float64(time.Millisecond) / float64(max(ops, 1))
}

// addOverhead reports tracing overhead: traced minus untraced CPU per op,
// absolute and as a share of the untraced figure.
func addOverhead(layers map[string]float64, untraced, traced float64) {
	layers["trace.overhead_ms_per_op"] = traced - untraced
	layers["trace.overhead_share"] = (traced - untraced) / untraced
}
