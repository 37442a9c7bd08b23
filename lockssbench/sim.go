package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"lockss/internal/adversary"
	"lockss/internal/experiment"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// simChunk is the simulator's unit of work in this benchmark: one op is
// this many executed events of one world, timed between the engine's
// progress callbacks.
const simChunk = 1 << 13

// sim-table1 runs the registered table1 scenario; sim-capacity the
// scale-large-baseline scenario. Both run on one experiment worker, so the
// simulation is single-threaded and the chunk clock sees one world at a time.
func runSimTable1(cfg runConfig) (*runReport, error) { return runSim(cfg, "table1", 45) }

func runSimCapacity(cfg runConfig) (*runReport, error) {
	return runSim(cfg, "scale-large-baseline", 15)
}

// chunkClock times each simChunk executed events of the running world.
type chunkClock struct {
	mu    sync.Mutex
	last  time.Time
	lat   []time.Duration
	spans *spanLog
	pass  uint64 // parent span of chunk spans
}

// tick is the engine's progress callback; events is the world's running
// total, which restarts at simChunk in every new world.
func (c *chunkClock) tick(events uint64) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if events > simChunk {
		c.lat = append(c.lat, now.Sub(c.last))
		c.spans.add("sim.chunk", c.pass, 0, c.last, now)
	}
	c.last = now
}

// take returns and clears the chunk latencies recorded so far.
func (c *chunkClock) take() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.lat
	c.lat = nil
	return out
}

// simCounts are the deterministic work counts of one pass's observed worlds.
type simCounts struct {
	worlds, events, sent, dropped    uint64
	pollsStarted, pollsOK, pollsDone uint64
	votesSupplied, invites, refused  uint64
	defenderEffort                   float64
	receiveCalls                     uint64
	receiveBusy                      time.Duration
}

// passState is what the hooks of one pass share. The experiment engine
// runs one world at a time (one worker), so the message handlers update the
// counts without a lock; the lock guards the world list, which layered runs
// append to from their own goroutines.
type passState struct {
	clock  *chunkClock
	traced bool
	mu     sync.Mutex
	worlds []*world.World
	counts simCounts
}

// hook wraps a scenario's adversary (or stands in for a missing one) so the
// benchmark sees every world the scenario builds through the attack
// factory: it installs the chunk clock and, when tracing, times every
// message delivery to a loyal peer. It adds no events and changes no
// randomness, so the scenario's output is unchanged; the golden check
// proves it on every pass.
type hook struct {
	inner adversary.Adversary
	st    *passState
}

func (h *hook) Name() string {
	if h.inner == nil {
		return "none"
	}
	return h.inner.Name()
}

func (h *hook) Install(w *world.World) {
	st := h.st
	w.InstallProgress(simChunk, func(_ sim.Time, events uint64) { st.clock.tick(events) })
	if st.traced {
		for _, p := range w.Peers {
			st.wrapHandler(w, p)
		}
	}
	st.mu.Lock()
	st.worlds = append(st.worlds, w)
	st.mu.Unlock()
	if h.inner != nil {
		h.inner.Install(w)
	}
}

// wrapHandler replaces a loyal peer's network handler with one that does
// what world.New's handler does — deliver protocol messages and expand
// invitation bursts — and times it. The scenarios run single-engine worlds,
// so every peer lives on shard 0.
func (st *passState) wrapHandler(w *world.World, p *protocol.Peer) {
	c := &st.counts
	w.Net.SetHandler(p.ID(), func(from ids.PeerID, payload any, size int) {
		t0 := time.Now()
		switch v := payload.(type) {
		case *protocol.Msg:
			p.Receive(from, v)
		case *world.BurstPayload:
			v.Deliver(w, 0, p)
		}
		c.receiveBusy += time.Since(t0)
		c.receiveCalls++
	})
}

// hooked returns a copy of spec whose attack factory wraps every run's
// adversary in a hook, including attack-free scenarios (a hook with no inner
// adversary installs nothing that changes the run).
func hooked(spec *experiment.Scenario, st *passState) *experiment.Scenario {
	s := *spec
	attack := spec.Attack
	s.Attack = func(o experiment.Options, cfg world.Config, pt experiment.Point) adversary.Adversary {
		var inner adversary.Adversary
		if attack != nil {
			if inner = attack(o, cfg, pt); inner == nil {
				return nil
			}
		}
		return &hook{inner: inner, st: st}
	}
	return &s
}

// simPass is one run of the scenario.
type simPass struct {
	res    *experiment.Result
	out    []byte
	wall   time.Duration
	cpu    time.Duration
	chunks []time.Duration
	counts simCounts
}

func runOnePass(spec *experiment.Scenario, o experiment.Options, clock *chunkClock, traced bool) (*simPass, error) {
	st := &passState{clock: clock, traced: traced}
	o.Engine = experiment.NewEngine(1)
	clock.take()
	c0, t0 := cpuTime(), time.Now()
	res, err := experiment.RunScenario(context.Background(), hooked(spec, st), o)
	wall, cpu := time.Since(t0), cpuTime()-c0
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, t := range spec.Render(o, res) {
		t.Fprint(&buf)
	}
	// Layers of one layered run queue for the engine's single worker in no
	// fixed order, so the worlds arrive in no fixed order either: sum the
	// floating-point effort in sorted order to keep the count exact.
	counts := st.counts
	efforts := make([]float64, 0, len(st.worlds))
	for _, w := range st.worlds {
		counts.worlds++
		counts.events += w.EventsExecuted()
		counts.sent += w.Net.Sent
		counts.dropped += w.Net.DroppedStoppage
		efforts = append(efforts, float64(w.DefenderEffort()))
		for _, p := range w.Peers {
			ps := p.Stats()
			counts.pollsStarted += ps.PollsStarted
			counts.pollsOK += ps.PollsSucceeded
			counts.pollsDone += ps.PollsConcluded()
			counts.votesSupplied += ps.VotesSupplied
			counts.invites += ps.InvitesConsidered
			counts.refused += ps.InvitesRefused
		}
	}
	sort.Float64s(efforts)
	for _, e := range efforts {
		counts.defenderEffort += e
	}
	return &simPass{res: res, out: buf.Bytes(), wall: wall, cpu: cpu, chunks: clock.take(), counts: counts}, nil
}

// accessFailureCeiling bounds the time-averaged share of damaged replicas
// a sim point may report. The goldens read 0.8% to 1.3%; a run far above
// that has stopped repairing.
const accessFailureCeiling = 0.05

// violation returns what a pass gets wrong at any seed, or "". It gives a
// run whose output cannot be compared with a golden or another pass (a
// seed other than the goldens', one pass in the time) a check that can
// fail: every point concluded successful polls at some defender effort
// with access failure under the ceiling; an attacked point charged the
// attacker; an attack-free point or baseline charged no attacker and raised
// no alarm (damage alone would have to strike more than MaxDisagree of a
// quorum's replicas at once). When the pass built a single world, the
// scenario's poll counts must equal the ones its peers keep.
func (p *simPass) violation(attacked bool) string {
	if len(p.res.Points) == 0 {
		return "no grid points"
	}
	check := func(what string, s experiment.RunStats, attacked bool) string {
		switch {
		case !(s.SuccessfulPolls > 0) || s.SuccessfulPolls > s.TotalPolls:
			return fmt.Sprintf("%s: %v of %v polls successful", what, s.SuccessfulPolls, s.TotalPolls)
		case !(s.DefenderEffort > 0):
			return fmt.Sprintf("%s: defender effort %v", what, s.DefenderEffort)
		case !(s.AccessFailure >= 0 && s.AccessFailure < accessFailureCeiling):
			return fmt.Sprintf("%s: access failure %v outside [0, %v)", what, s.AccessFailure, accessFailureCeiling)
		case attacked && !(s.AttackerEffort > 0):
			return fmt.Sprintf("%s: attacked, but attacker effort %v", what, s.AttackerEffort)
		case !attacked && (s.Alarms != 0 || s.AttackerEffort != 0):
			return fmt.Sprintf("%s: attack-free, but %v alarms and attacker effort %v", what, s.Alarms, s.AttackerEffort)
		}
		return ""
	}
	for i, pr := range p.res.Points {
		if v := check(fmt.Sprintf("point %d", i), pr.Stats, attacked); v != "" {
			return v
		}
		if pr.Baseline != nil {
			if v := check(fmt.Sprintf("point %d baseline", i), *pr.Baseline, false); v != "" {
				return v
			}
		}
	}
	c := p.counts
	if c.events == 0 || c.pollsOK == 0 || c.pollsOK > c.pollsDone || c.pollsDone > c.pollsStarted {
		return fmt.Sprintf("peer counts: %d events, %d polls started, %d concluded, %d successful", c.events, c.pollsStarted, c.pollsDone, c.pollsOK)
	}
	if pr := p.res.Points[0]; len(p.res.Points) == 1 && pr.Baseline == nil && c.worlds == 1 &&
		(pr.Stats.SuccessfulPolls != float64(c.pollsOK) || pr.Stats.TotalPolls != float64(c.pollsDone)) {
		return fmt.Sprintf("scenario reports %v of %v polls successful, its peers %d of %d", pr.Stats.SuccessfulPolls, pr.Stats.TotalPolls, c.pollsOK, c.pollsDone)
	}
	return ""
}

// deterministic reports whether two passes did exactly the same work.
func (c simCounts) deterministic(d simCounts) bool {
	return c.worlds == d.worlds && c.events == d.events && c.sent == d.sent &&
		c.pollsStarted == d.pollsStarted && c.defenderEffort == d.defenderEffort
}

func runSim(cfg runConfig, name string, setupReps int) (*runReport, error) {
	spec, ok := experiment.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario %q is not registered", name)
	}
	o := experiment.Options{Scale: experiment.ScaleTiny, BaseSeed: cfg.seed}
	rep := &runReport{correct: true, samples: map[string]int{}, layers: map[string]float64{}}

	// Set-up: assemble the world of every grid point, as each run does
	// before its event loop starts. Each repeat starts from a collected heap.
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		pts, err := spec.Points(o)
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			if _, err := world.New(spec.ConfigAt(o, pt)); err != nil {
				return nil, err
			}
		}
		rep.meas.setups = append(rep.meas.setups, time.Since(t0))
	}
	var golden []byte
	if cfg.seed == 0 {
		var err error
		golden, err = os.ReadFile(filepath.Join("internal", "experiment", "testdata", "golden", name+".golden"))
		if err != nil {
			return nil, err
		}
	}

	clock := &chunkClock{}
	experiment.ProgressStride = simChunk
	experiment.ProgressSink = func(_ sim.Time, events uint64) { clock.tick(events) }
	defer func() { experiment.ProgressSink = nil }()

	var first *simPass
	check := func(p *simPass) {
		rep.attempted++
		// Every pass must keep the scenario's invariants. At the golden
		// seed the output must match the golden; at any seed every repeat
		// must match the first pass byte for byte and do exactly the same
		// work.
		wrong := p.violation(spec.Attack != nil)
		switch {
		case wrong != "":
		case len(p.out) == 0:
			wrong = "rendered nothing"
		case golden != nil && !bytes.Equal(p.out, golden):
			wrong = "output differs from the golden"
		case golden == nil && first != nil && !bytes.Equal(p.out, first.out):
			wrong = "output differs from the first pass"
		case first != nil && !p.counts.deterministic(first.counts):
			wrong = fmt.Sprintf("work counts differ from the first pass: %+v vs %+v", p.counts, first.counts)
		}
		if first == nil {
			first = p
		}
		if wrong != "" {
			rep.failed++
			rep.correct = false
			rep.notes = append(rep.notes, fmt.Sprintf("pass %d: %s", rep.attempted, wrong))
		}
	}

	// Untraced passes: at least one, and more while another pass as long as
	// the last still ends within half again the measuring time. A traced
	// run measures one untraced pass as its baseline.
	heap := startHeapSampler()
	var passes []*simPass
	start := time.Now()
	for len(passes) == 0 || (!cfg.trace && time.Since(start)+passes[len(passes)-1].wall <= cfg.seconds*3/2) {
		m0, b0 := allocCounters()
		p, err := runOnePass(spec, o, clock, false)
		if err != nil {
			return nil, err
		}
		m1, b1 := allocCounters()
		if len(passes) == 0 {
			rep.layers["runtime.mallocs"] = float64(m1 - m0)
			rep.layers["runtime.alloc_mb"] = float64(b1-b0) / (1 << 20)
		}
		check(p)
		passes = append(passes, p)
		rep.meas.window += p.wall
		rep.meas.cpu += p.cpu
		rep.meas.ops += int64(len(p.chunks))
		rep.meas.opLat = append(rep.meas.opLat, p.chunks...)
	}
	rep.meas.peakHeapMB = heap.Stop()
	rep.samples["op_latency"] = len(rep.meas.opLat)
	rep.samples["passes"] = len(passes)
	rep.samples["setup"] = len(rep.meas.setups)
	rep.notes = append(rep.notes, fmt.Sprintf("scenario %s, seed %d; one op is %d simulated events; pass wall times %v", name, cfg.seed, simChunk, passWalls(passes)))

	if cfg.trace {
		if err := traceSimPass(cfg, spec, o, clock, passes[0], rep, check); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func passWalls(ps []*simPass) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Round(time.Millisecond).String()
	}
	return out
}

// traceSimPass runs one more pass with the message-delivery wrappers, chunk
// spans and a CPU profile, and fills the per-layer metrics.
func traceSimPass(cfg runConfig, spec *experiment.Scenario, o experiment.Options, clock *chunkClock, base *simPass, rep *runReport, check func(*simPass)) error {
	spans := &spanLog{}
	clock.spans = spans
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	t0 := time.Now()
	passID := spans.open("experiment.RunScenario", 0, 0, t0)
	clock.pass = passID
	p, err := runOnePass(spec, o, clock, true)
	spans.close(passID, time.Now())
	self, ferr := prof.fold()
	clock.spans = nil
	if err != nil {
		return err
	}
	if ferr != nil {
		return ferr
	}
	check(p) // the traced pass must repeat the untraced one exactly
	addSelfTimes(rep.layers, self)
	c := p.counts
	l := rep.layers
	l["sim.events"] = float64(c.events)
	l["sim.events_per_s"] = float64(base.counts.events) / base.wall.Seconds()
	l["netsim.msgs_sent"] = float64(c.sent)
	l["netsim.msgs_dropped"] = float64(c.dropped)
	l["protocol.receive_calls"] = float64(c.receiveCalls)
	l["protocol.receive_busy_s"] = c.receiveBusy.Seconds()
	l["protocol.polls_started"] = float64(c.pollsStarted)
	l["protocol.votes_supplied"] = float64(c.votesSupplied)
	if c.pollsDone > 0 {
		l["protocol.poll_success_ratio"] = float64(c.pollsOK) / float64(c.pollsDone)
	}
	if c.invites > 0 {
		l["protocol.invite_refuse_ratio"] = float64(c.refused) / float64(c.invites)
	}
	l["effort.defender_effort_s"] = c.defenderEffort
	addOverhead(l, cpuMsPerOp(base.cpu, int64(len(base.chunks))), cpuMsPerOp(p.cpu, int64(len(p.chunks))))
	l["trace.spans"] = float64(spans.len())
	rep.notes = append(rep.notes,
		fmt.Sprintf("traced pass: %v wall vs %v untraced; counts cover the %d worlds built through the attack factory", p.wall.Round(time.Millisecond), base.wall.Round(time.Millisecond), c.worlds))
	return spans.write(cfg.spanPath)
}

// addSelfTimes copies folded profile times into the per-layer metrics.
func addSelfTimes(dst map[string]float64, self map[string]float64) {
	for layer, s := range self {
		switch layer {
		case "runtime.gc":
			dst["runtime.gc_self_s"] += s
		default:
			dst[layer+".self_s"] += s
		}
	}
}
