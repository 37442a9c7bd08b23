package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"lockss/internal/content"
	"lockss/internal/store"
)

// store-churn drives one store alone, one client, closed loop. Each op is a
// churn cycle on a fresh store: stream-ingest K AUs with CreateFrom, flip
// bits in a few blocks with InjectDamage, run one unpaced scrub pass, then
// ApplyRepair and Flush every block the scrub found damaged, with repair
// data from a pristine peer store. The cycle must end with VerifyAll empty.
type churnShape struct {
	aus, damagePerAU int
	auSize, block    int64
}

func churnShapeFor(smallest bool) churnShape {
	if smallest {
		return churnShape{aus: 1, damagePerAU: 1, auSize: 256 << 10, block: 64 << 10}
	}
	return churnShape{aus: 4, damagePerAU: 1, auSize: 2 << 20, block: 64 << 10}
}

func (s churnShape) specs() []content.AUSpec {
	out := make([]content.AUSpec, s.aus)
	for i := range out {
		out[i] = content.AUSpec{ID: content.AUID(i + 1), Name: fmt.Sprintf("churn-%03d", i+1), Size: s.auSize, BlockSize: s.block}
	}
	return out
}

// seededContent is an AU's content: a splitmix64 stream keyed by the
// workload seed and the AU, so every store ingests the same bytes.
func seededContent(seed uint64, au content.AUID, size int64) []byte {
	out := make([]byte, (size+7)&^7)
	state := seed*0x9e3779b97f4a7c15 ^ uint64(au)<<32 ^ 0x5eed
	for i := 0; i < len(out); i += 8 {
		binary.LittleEndian.PutUint64(out[i:], splitmix(&state))
	}
	return out[:size]
}

func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// ingest opens a store at dir and streams every AU into it, returning the
// time spent inside CreateFrom.
func ingest(dir string, seed uint64, specs []content.AUSpec, data [][]byte, spans *spanLog, parent uint64) (*store.Store, time.Duration, error) {
	st, err := store.OpenWith(dir, store.Options{})
	if err != nil {
		return nil, 0, err
	}
	var busy time.Duration
	for i, spec := range specs {
		t0 := time.Now()
		_, err := st.CreateFrom(spec, seed<<16|uint64(spec.ID), bytes.NewReader(data[i]))
		t1 := time.Now()
		busy += t1.Sub(t0)
		spans.add("store.CreateFrom", parent, 0, t0, t1)
		if err != nil {
			st.Close()
			return nil, 0, err
		}
	}
	return st, busy, nil
}

type blockRef struct {
	au    content.AUID
	block int
}

// damagePlan picks the blocks cycle n corrupts, from the seed.
func damagePlan(seed uint64, n int, s churnShape, specs []content.AUSpec) []blockRef {
	state := seed ^ uint64(n)*0xd1b54a32d192ed03
	var out []blockRef
	for _, spec := range specs {
		picked := map[int]bool{}
		for len(picked) < s.damagePerAU && len(picked) < spec.Blocks() {
			picked[int(splitmix(&state)%uint64(spec.Blocks()))] = true
		}
		blocks := make([]int, 0, len(picked))
		for b := range picked {
			blocks = append(blocks, b)
		}
		sort.Ints(blocks)
		for _, b := range blocks {
			out = append(out, blockRef{spec.ID, b})
		}
	}
	return out
}

// churnTotals accumulates the store's work across cycles.
type churnTotals struct {
	createBusy, applyBusy, scrubTime time.Duration
	bytesIngested, bytesScrubbed     int64
	repairLat                        []time.Duration
	stats                            store.Stats
}

func (t *churnTotals) addStats(s store.Stats) {
	t.stats.Fsyncs += s.Fsyncs
	t.stats.ManifestWrites += s.ManifestWrites
	t.stats.ManifestCommits += s.ManifestCommits
	t.stats.BlocksScanned += s.BlocksScanned
}

// churnCycle runs one cycle in dir. It returns the cycle's timed wall and
// CPU (set-up of the check and clean-up excluded) and whether the store
// verified clean afterwards.
func churnCycle(dir string, seed uint64, n int, shape churnShape, specs []content.AUSpec, data [][]byte, pristine *store.Store, tot *churnTotals, spans *spanLog) (wall, cpu time.Duration, ok bool, err error) {
	c0, t0 := cpuTime(), time.Now()
	cycleID := spans.open("churn.cycle", 0, 0, t0)
	st, busy, err := ingest(dir, seed, specs, data, spans, cycleID)
	if err != nil {
		return 0, 0, false, err
	}
	defer st.Close()
	tot.createBusy += busy
	tot.bytesIngested += int64(len(specs)) * shape.auSize

	planned := damagePlan(seed, n, shape, specs)
	for _, d := range planned {
		if err := st.InjectDamage(d.au, d.block); err != nil {
			return 0, 0, false, err
		}
	}

	// One unpaced scrub pass; damage it reports is what gets repaired.
	var mu sync.Mutex
	found := map[blockRef]bool{}
	passDone := make(chan time.Duration, 1)
	ts := time.Now()
	st.StartScrub(store.ScrubConfig{
		Pace: -1, PassPause: -1, Workers: 1,
		OnDamage: func(au content.AUID, block int) {
			mu.Lock()
			found[blockRef{au, block}] = true
			mu.Unlock()
		},
		OnPass: func(d time.Duration) {
			select {
			case passDone <- d:
			default:
			}
		},
	})
	passTime := <-passDone
	st.StopScrub()
	spans.add("store.scrub_pass", cycleID, 0, ts, ts.Add(passTime))
	tot.scrubTime += passTime
	tot.bytesScrubbed += int64(len(specs)) * shape.auSize

	mu.Lock()
	repairs := make([]blockRef, 0, len(found))
	for b := range found {
		repairs = append(repairs, b)
	}
	mu.Unlock()
	sort.Slice(repairs, func(i, j int) bool {
		if repairs[i].au != repairs[j].au {
			return repairs[i].au < repairs[j].au
		}
		return repairs[i].block < repairs[j].block
	})
	for _, b := range repairs {
		tr := time.Now()
		data, err := pristine.Replica(b.au).RepairBlock(b.block)
		if err != nil {
			return 0, 0, false, err
		}
		ta := time.Now()
		if err := st.Replica(b.au).ApplyRepair(b.block, data); err != nil {
			return 0, 0, false, err
		}
		tf := time.Now()
		tot.applyBusy += tf.Sub(ta)
		if err := st.Flush(); err != nil {
			return 0, 0, false, err
		}
		te := time.Now()
		tot.repairLat = append(tot.repairLat, te.Sub(tr))
		rid := spans.add("churn.repair", cycleID, 0, tr, te)
		spans.add("store.ApplyRepair", rid, 0, ta, tf)
		spans.add("store.Flush", rid, 0, tf, te)
	}
	wall, cpu = time.Since(t0), cpuTime()-c0
	spans.close(cycleID, t0.Add(wall))

	// The check: the scrub found exactly the injected damage and the repaired
	// store verifies clean.
	ok = len(repairs) == len(planned) && len(st.VerifyAll()) == 0
	for _, d := range planned {
		ok = ok && found[d]
	}
	tot.addStats(st.Stats())
	if err := st.Close(); err != nil {
		return 0, 0, false, err
	}
	return wall, cpu, ok, os.RemoveAll(dir)
}

func runStoreChurn(cfg runConfig) (*runReport, error) {
	shape := churnShapeFor(cfg.smallest)
	specs := shape.specs()
	rep := &runReport{correct: true, samples: map[string]int{}, layers: map[string]float64{}}

	// Set-up: generate the content and ingest the pristine peer store that
	// serves repair data.
	var pristine *store.Store
	var data [][]byte
	for i := 0; i < 5; i++ {
		runtime.GC()
		t0 := time.Now()
		data = data[:0]
		for _, spec := range specs {
			data = append(data, seededContent(cfg.seed, spec.ID, spec.Size))
		}
		st, _, err := ingest(filepath.Join(cfg.work, fmt.Sprintf("pristine-%d", i)), cfg.seed, specs, data, nil, 0)
		if err != nil {
			return nil, err
		}
		rep.meas.setups = append(rep.meas.setups, time.Since(t0))
		if pristine != nil {
			pristine.Close()
		}
		pristine = st
	}
	defer pristine.Close()

	measure := func(d time.Duration, spans *spanLog, tot *churnTotals) (measurement, error) {
		var m measurement
		heap := startHeapSampler()
		start := time.Now()
		for n := 0; m.ops == 0 || time.Since(start) < d; n++ {
			wall, cpu, ok, err := churnCycle(filepath.Join(cfg.work, fmt.Sprintf("cycle-%d", n)), cfg.seed, n, shape, specs, data, pristine, tot, spans)
			if err != nil {
				return m, err
			}
			rep.attempted++
			if !ok {
				rep.failed++
				rep.correct = false
			}
			m.ops++
			m.opLat = append(m.opLat, wall)
			m.window += wall
			m.cpu += cpu
		}
		m.peakHeapMB = heap.Stop()
		return m, nil
	}

	if !cfg.trace {
		var tot churnTotals
		m, err := measure(cfg.seconds, nil, &tot)
		if err != nil {
			return nil, err
		}
		m.setups = rep.meas.setups
		rep.meas = m
		rep.samples["op_latency"] = len(m.opLat)
		rep.samples["repairs"] = len(tot.repairLat)
		rep.samples["setup"] = len(m.setups)
		rep.notes = append(rep.notes, fmt.Sprintf("one op is a churn cycle of %d AUs x %d KiB with %d damaged blocks each", shape.aus, shape.auSize>>10, shape.damagePerAU))
		return rep, nil
	}

	// Traced run: half the time untraced as the baseline, half traced.
	var baseTot churnTotals
	base, err := measure(cfg.seconds/2, nil, &baseTot)
	if err != nil {
		return nil, err
	}
	spans := &spanLog{}
	var tot churnTotals
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	m0, b0 := allocCounters()
	traced, err := measure(cfg.seconds/2, spans, &tot)
	m1, b1 := allocCounters()
	self, ferr := prof.fold()
	if err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	l := rep.layers
	addSelfTimes(l, self)
	l["runtime.mallocs"] = float64(m1 - m0)
	l["runtime.alloc_mb"] = float64(b1-b0) / (1 << 20)
	l["store.create_busy_s"] = tot.createBusy.Seconds()
	l["store.apply_repair_busy_s"] = tot.applyBusy.Seconds()
	l["store.fsyncs"] = float64(tot.stats.Fsyncs)
	l["store.manifest_writes"] = float64(tot.stats.ManifestWrites)
	l["store.manifest_commits"] = float64(tot.stats.ManifestCommits)
	l["store.blocks_scanned"] = float64(tot.stats.BlocksScanned)
	// Rates and repair latency come from the untraced half.
	l["store.ingest_mb_per_s"] = float64(baseTot.bytesIngested) / (1 << 20) / baseTot.createBusy.Seconds()
	l["store.scrub_mb_per_s"] = float64(baseTot.bytesScrubbed) / (1 << 20) / baseTot.scrubTime.Seconds()
	l["store.repair_p50_ms"] = quantile(millis(baseTot.repairLat), 0.5)
	addOverhead(l, cpuMsPerOp(base.cpu, base.ops), cpuMsPerOp(traced.cpu, traced.ops))
	l["trace.spans"] = float64(spans.len())
	rep.samples["untraced_cycles"] = int(base.ops)
	rep.samples["traced_cycles"] = int(traced.ops)
	rep.samples["repairs"] = len(baseTot.repairLat)
	return rep, spans.write(cfg.spanPath)
}
