package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/node"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/store"
	"lockss/internal/telemetry"
)

// node-cluster runs real nodes in this process over loopback TCP, each with
// a durable store in the scratch directory, on a compressed protocol
// timescale. It is attack- and damage-free. The load is open loop: every
// node polls each of its AUs once per interval whatever the others do, so
// the offered rate is nodes x AUs / interval. One op is one vote, timed from
// the start of the voter's VoteHashes to the poller's acceptance of the
// vote: hashing and reading the replica, the vote's effort proof, the wire,
// the session, the transport and the poller's verification, and none of the
// protocol's timers. The solicitation-to-vote time waits out the voter's
// proof timeout and compute slot, and a poll lasts about one interval, so
// both are reported per layer.
type clusterShape struct {
	nodes, aus    int
	auSize, block int64
	interval      time.Duration
}

func clusterShapeFor(smallest bool) clusterShape {
	if smallest {
		return clusterShape{nodes: 4, aus: 2, auSize: 1 << 20, block: 32 << 10, interval: time.Second}
	}
	// About half of one of the two cores this benchmark was sized on. At
	// twice the load (8 AUs, or 2 MiB AUs) votes began to queue for the
	// CPU in some runs and not in others, and the median vote time moved
	// by up to 2.5x from run to run.
	return clusterShape{nodes: 8, aus: 4, auSize: 1 << 20, block: 64 << 10, interval: time.Second}
}

func (s clusterShape) offered() float64 { return float64(s.nodes*s.aus) / s.interval.Seconds() }

// protocolConfig scales the protocol's preservation timescales to the poll
// interval, as demo fleets run it, with a quorum of three drawn from every
// other node: with only five invitees an occasional poll (about 1 in 5000)
// went inquorate on a busy host.
func (s clusterShape) protocolConfig() protocol.Config {
	iv := s.interval
	cfg := protocol.DefaultConfig()
	cfg.PollInterval = iv
	cfg.VoteWindow = iv * 7 / 15
	cfg.AckTimeout = iv / 6
	cfg.ProofTimeout = iv / 10
	cfg.VoteSlack = iv / 5
	cfg.ReceiptSlack = iv / 3
	cfg.RepairTimeout = iv * 4 / 15
	cfg.Refractory = iv * 2 / 15
	cfg.GradeDecay = time.Hour
	cfg.FrivolousRepairProb = 0
	inner := s.nodes - 1
	quorum := min(3, inner)
	cfg.Quorum = quorum
	cfg.InnerCircle = inner
	cfg.MaxDisagree = max((quorum-1)/2, 1)
	cfg.OuterCircle = 2
	cfg.Nominations = 3
	target := max(inner, 2*quorum)
	cfg.RefListTarget = target
	cfg.RefListMax = target + 5
	cfg.ConsiderBurst = 64
	cfg.BlockSize = s.block
	return cfg
}

func clusterCosts() effort.CostModel {
	m := effort.DefaultCostModel()
	m.HashBytesPerSec = 64 << 30
	m.SessionSetup = 1e-6
	m.ScheduleCheck = 1e-6
	m.ReceiptCheck = 1e-6
	return m
}

// clusterMBF is demo-scale proof effort: the real memory-bound function,
// sized so a cluster fits on one machine.
var clusterMBF = effort.MBFParams{TableWords: 1 << 12, Steps: 1 << 10, Checkpoints: 8, VerifySegments: 2, Seed: 7}

// pollRec is one poll as the benchmark's observer saw it.
type pollRec struct {
	start, end time.Time
	outcome    protocol.Outcome
	done       bool
	span       uint64
	votes      int
	tallyStart time.Time
	repairs    map[int]time.Time
}

type voteRec struct {
	at time.Time
	// lat runs from solicitation to receipt, work from the start of the
	// voter's VoteHashes to receipt.
	lat, work time.Duration
}

// replicaKey names one node's replica of one AU.
type replicaKey struct {
	node ids.PeerID
	au   content.AUID
}

// voteKey names one vote: a voter's answer in one poller's poll.
type voteKey struct {
	poller, voter ids.PeerID
	poll          uint64
}

// pollObserver times polls and votes exactly, from the protocol's own
// events and the replicas' VoteHashes calls, for every node. It is safe for
// concurrent use by all actors.
type pollObserver struct {
	mu      sync.Mutex
	polls   map[uint64]*pollRec
	votes   []voteRec
	repairs uint64
	spans   *spanLog // non-nil while tracing
	// hashStart is the start of each replica's latest VoteHashes call. A
	// node's actor computes a vote and supplies it in one callback, so at
	// VoteSupplied it is that vote's start; supplied carries it to the
	// poller's VoteReceived.
	hashStart map[replicaKey]time.Time
	supplied  map[voteKey]time.Time
}

func newPollObserver() *pollObserver {
	return &pollObserver{
		polls:     make(map[uint64]*pollRec),
		hashStart: make(map[replicaKey]time.Time),
		supplied:  make(map[voteKey]time.Time),
	}
}

func (o *pollObserver) hashStarted(node ids.PeerID, au content.AUID, t time.Time) {
	o.mu.Lock()
	o.hashStart[replicaKey{node, au}] = t
	o.mu.Unlock()
}

func at(t sched.Time) time.Time { return time.Unix(0, int64(t)) }

func (o *pollObserver) setSpans(s *spanLog) {
	o.mu.Lock()
	o.spans = s
	o.mu.Unlock()
}

func (o *pollObserver) PollStarted(_ ids.PeerID, _ content.AUID, id uint64, now sched.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r := &pollRec{start: at(now)}
	r.span = o.spans.open("poll", 0, id, r.start)
	o.polls[id] = r
}

func (o *pollObserver) VoteSolicited(ids.PeerID, ids.PeerID, content.AUID, uint64, sched.Time) {}

func (o *pollObserver) VoteReceived(poller, voter ids.PeerID, _ content.AUID, id uint64, solicitedAt, now sched.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := voteKey{poller, voter, id}
	if start, ok := o.supplied[k]; ok {
		delete(o.supplied, k)
		o.votes = append(o.votes, voteRec{at: at(now), lat: time.Duration(now - solicitedAt), work: at(now).Sub(start)})
	}
	if r := o.polls[id]; r != nil {
		r.votes++
		o.spans.add("poll.solicit_to_vote", r.span, id, at(solicitedAt), at(now))
	}
}

func (o *pollObserver) TallyStarted(_ ids.PeerID, _ content.AUID, id uint64, now sched.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if r := o.polls[id]; r != nil {
		r.tallyStart = at(now)
	}
}

func (o *pollObserver) RepairRequested(_, _ ids.PeerID, _ content.AUID, id uint64, block int, now sched.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.repairs++
	if r := o.polls[id]; r != nil {
		if r.repairs == nil {
			r.repairs = make(map[int]time.Time)
		}
		r.repairs[block] = at(now)
	}
}

func (o *pollObserver) RepairApplied(_ ids.PeerID, _ content.AUID, id uint64, block int, now sched.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if r := o.polls[id]; r != nil {
		if t, ok := r.repairs[block]; ok {
			o.spans.add("poll.repair", r.span, id, t, at(now))
		}
	}
}

func (o *pollObserver) PollConcluded(_ ids.PeerID, _ content.AUID, id uint64, out protocol.Outcome, _, now sched.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r := o.polls[id]
	if r == nil {
		return
	}
	r.end, r.outcome, r.done = at(now), out, true
	o.spans.close(r.span, r.end)
	if !r.tallyStart.IsZero() {
		o.spans.add("poll.tally", r.span, id, r.tallyStart, r.end)
	}
}

func (o *pollObserver) Alarm(ids.PeerID, content.AUID, uint64, sched.Time) {}

func (o *pollObserver) VoteSupplied(voter, poller ids.PeerID, au content.AUID, id uint64, _ sched.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if start, ok := o.hashStart[replicaKey{voter, au}]; ok {
		o.supplied[voteKey{poller, voter, id}] = start
	}
}

// window summarizes the polls started and the votes received in [from, to).
type pollWindow struct {
	started, ok, badOutcome, inquorate, open int64
	pollLat, voteLat, voteWork               []time.Duration
	// repairs counts repair requests over the observer's whole life.
	repairs uint64
	// unsuccessful describes each poll that did not succeed.
	unsuccessful []string
}

func (o *pollObserver) window(from, to time.Time) pollWindow {
	o.mu.Lock()
	defer o.mu.Unlock()
	w := pollWindow{repairs: o.repairs}
	for id, r := range o.polls {
		if r.start.Before(from) || !r.start.Before(to) {
			continue
		}
		w.started++
		if !r.done {
			w.open++
			w.unsuccessful = append(w.unsuccessful, fmt.Sprintf("poll %x not concluded, %d votes", id, r.votes))
			continue
		}
		if r.outcome != protocol.OutcomeSuccess {
			w.unsuccessful = append(w.unsuccessful, fmt.Sprintf("poll %x %v after %v with %d votes", id, r.outcome, r.end.Sub(r.start).Round(time.Millisecond), r.votes))
		}
		switch r.outcome {
		case protocol.OutcomeInquorate:
			w.inquorate++
		case protocol.OutcomeSuccess:
			w.ok++
			w.pollLat = append(w.pollLat, r.end.Sub(r.start))
		case protocol.OutcomeInconclusive, protocol.OutcomeRepairFailed:
			w.badOutcome++
		}
	}
	for _, v := range o.votes {
		if !v.at.Before(from) && v.at.Before(to) {
			w.voteLat = append(w.voteLat, v.lat)
			w.voteWork = append(w.voteWork, v.work)
		}
	}
	return w
}

// replicaTrace times VoteHashes on the cluster's replicas while tracing is
// on.
type replicaTrace struct {
	on    atomic.Bool
	mu    sync.Mutex
	calls uint64
	bytes int64
	busy  time.Duration
	spans *spanLog
	actor []uint64 // per-node actor span
}

// timedReplica is the replica handed to AddAU: the store's replica, with
// the start of every VoteHashes call reported to the observer and, on a
// traced run, the call timed.
type timedReplica struct {
	content.Replica
	obs  *pollObserver
	t    *replicaTrace // nil when not tracing
	id   ids.PeerID
	node int
}

func (r *timedReplica) VoteHashes(nonce []byte) []content.Hash {
	t0 := time.Now()
	r.obs.hashStarted(r.id, r.Spec().ID, t0)
	h := r.Replica.VoteHashes(nonce)
	if r.t == nil || !r.t.on.Load() {
		return h
	}
	t1 := time.Now()
	r.t.mu.Lock()
	r.t.calls++
	r.t.bytes += r.Spec().Size
	r.t.busy += t1.Sub(t0)
	r.t.spans.add("store.Replica.VoteHashes", r.t.actor[r.node], 0, t0, t1)
	r.t.mu.Unlock()
	return h
}

type cluster struct {
	nodes []*node.Node
}

func (c *cluster) stop() {
	for _, n := range c.nodes {
		n.Stop() // also flushes and closes the node's store
	}
}

// ingestCluster writes every node's store under dir: the same content for
// every node, so every poll should agree.
func ingestCluster(dir string, seed uint64, shape clusterShape) error {
	for i := 0; i < shape.nodes; i++ {
		st, err := store.OpenWith(nodeDir(dir, i), store.Options{})
		if err != nil {
			return err
		}
		for a := 0; a < shape.aus; a++ {
			spec := content.AUSpec{ID: content.AUID(a + 1), Name: fmt.Sprintf("journal-%04d", 2000+a), Size: shape.auSize, BlockSize: shape.block}
			if _, err := st.CreateFrom(spec, uint64(i+1)<<20|uint64(spec.ID), bytes.NewReader(seededContent(seed, spec.ID, spec.Size))); err != nil {
				st.Close()
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

func nodeDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("node-%02d", i+1)) }

// buildCluster reopens every node's store under dir, builds and starts the
// nodes and binds their addresses. With an observer, the nodes report to it
// and their replicas are wrapped to report VoteHashes calls to it as well.
func buildCluster(dir string, seed uint64, shape clusterShape, obs *pollObserver, rt *replicaTrace) (*cluster, error) {
	pcfg := shape.protocolConfig()
	c := &cluster{}
	var stores []*store.Store // not yet owned by a started node
	fail := func(err error) (*cluster, error) {
		for _, st := range stores {
			st.Close()
		}
		c.stop()
		return nil, err
	}
	all := make([]ids.PeerID, shape.nodes)
	for i := range all {
		all[i] = ids.PeerID(i + 1)
	}
	for i := 0; i < shape.nodes; i++ {
		st, err := store.OpenWith(nodeDir(dir, i), store.Options{})
		if err != nil {
			return fail(err)
		}
		stores = append(stores, st)
		replicas := st.Replicas()
		if len(replicas) != shape.aus {
			return fail(fmt.Errorf("node %d store holds %d AUs, want %d", i+1, len(replicas), shape.aus))
		}
		var nodeObs protocol.Observer = protocol.NopObserver{}
		if obs != nil {
			nodeObs = obs
		}
		n, err := node.New(node.Config{
			ID: all[i], Listen: "127.0.0.1:0",
			Protocol: pcfg, Costs: clusterCosts(), MBF: clusterMBF, EffortUnit: 0.05,
			Seed:       seed*1_000_003 + uint64(i+1),
			Observer:   nodeObs,
			MaxInbound: 4096, MaxInboundPerAddr: 4096, // the whole cluster shares 127.0.0.1
			Store: st, ScrubPace: time.Second,
		})
		if err != nil {
			return fail(err)
		}
		refs := make([]ids.PeerID, 0, shape.nodes-1)
		for _, id := range all {
			if id != all[i] {
				refs = append(refs, id)
			}
		}
		for _, r := range replicas {
			var rep content.Replica = r
			if obs != nil {
				rep = &timedReplica{Replica: r, obs: obs, t: rt, id: all[i], node: i}
			}
			if err := n.AddAU(rep, refs); err != nil {
				return fail(err)
			}
			for _, p := range refs {
				n.Peer().SeedGrade(r.Spec().ID, p, reputation.Even)
			}
		}
		n.SetFriends(refs)
		if err := n.Start(); err != nil {
			return fail(err)
		}
		stores = stores[:len(stores)-1] // the started node owns it now
		c.nodes = append(c.nodes, n)
	}
	for i, n := range c.nodes {
		addr := n.Addr().String()
		for _, m := range c.nodes {
			m.SetAddress(all[i], addr)
		}
	}
	return c, nil
}

// clusterCounters snapshots the cluster's cumulative counters.
type clusterCounters struct {
	peer      protocol.PeerStats
	effort    float64
	transport node.TransportStats
	store     store.Stats
}

func (c *cluster) counters() clusterCounters {
	var out clusterCounters
	for _, n := range c.nodes {
		n.Inspect(func(p *protocol.Peer) {
			s := p.Stats()
			out.peer.PollsStarted += s.PollsStarted
			out.peer.PollsSucceeded += s.PollsSucceeded
			out.peer.PollsInquorate += s.PollsInquorate
			out.peer.PollsInconclusive += s.PollsInconclusive
			out.peer.PollsRepairFailed += s.PollsRepairFailed
			out.peer.VotesSupplied += s.VotesSupplied
			out.peer.InvitesConsidered += s.InvitesConsidered
			out.peer.InvitesRefused += s.InvitesRefused
			out.effort += float64(p.Ledger().Total)
		})
		t := n.TransportStats()
		out.transport.Sent += t.Sent
		out.transport.Drops += t.Drops
		s := n.StoreStats()
		out.store.Fsyncs += s.Fsyncs
		out.store.ManifestWrites += s.ManifestWrites
		out.store.ManifestCommits += s.ManifestCommits
		out.store.BlocksScanned += s.BlocksScanned
	}
	return out
}

// measureWindow measures the cluster over one window of polls: it returns
// the window's measurement and poll summary once every poll started in the
// window has had time to conclude.
func measureWindow(c *cluster, obs *pollObserver, shape clusterShape, d time.Duration) (measurement, pollWindow) {
	var m measurement
	heap := startHeapSampler()
	c0, from := cpuTime(), time.Now()
	time.Sleep(d)
	to := time.Now()
	m.cpu, m.window = cpuTime()-c0, to.Sub(from)
	m.peakHeapMB = heap.Stop()
	// A poll runs at most its interval plus a quarter for the guard timer.
	time.Sleep(shape.interval * 3 / 2)
	w := obs.window(from, to)
	m.ops = int64(len(w.voteWork))
	m.opLat = w.voteWork
	return m, w
}

func runNodeCluster(cfg runConfig) (*runReport, error) {
	shape := clusterShapeFor(cfg.smallest)
	rep := &runReport{correct: true, samples: map[string]int{}, layers: map[string]float64{}}

	// Set-up: reopen every node's store, build and start the nodes; the
	// stores are ingested once beforehand, untimed, so set-up is what a
	// restart of the cluster costs. All but the last cluster are torn down
	// at once; the last is measured.
	clusterDir := filepath.Join(cfg.work, "cluster")
	if err := ingestCluster(clusterDir, cfg.seed, shape); err != nil {
		return nil, err
	}
	obs := newPollObserver()
	var rt *replicaTrace
	if cfg.trace {
		rt = &replicaTrace{actor: make([]uint64, shape.nodes)}
	}
	var c *cluster
	const builds = 31
	for i := 0; i < builds; i++ {
		var err error
		var o *pollObserver
		var r *replicaTrace
		if i == builds-1 {
			o, r = obs, rt
			// A stopped node's pending protocol timers keep its memory
			// for up to about two intervals: let them lapse, so the
			// measured cluster's heap is its own.
			time.Sleep(2 * shape.interval)
		}
		runtime.GC()
		t0 := time.Now()
		c, err = buildCluster(clusterDir, cfg.seed, shape, o, r)
		if err != nil {
			return nil, err
		}
		rep.meas.setups = append(rep.meas.setups, time.Since(t0))
		if i < builds-1 {
			c.stop()
		}
	}
	defer c.stop()

	// Warm-up: sessions connect and the first polls, whose start times are
	// jittered across the first interval, get going.
	time.Sleep(shape.interval * 3 / 2)

	window := cfg.seconds
	if cfg.trace {
		window = cfg.seconds / 2
	}
	m, w := measureWindow(c, obs, shape, window)
	if w.ok == 0 {
		return nil, fmt.Errorf("no poll succeeded: %d started, %d inquorate, %d not concluded", w.started, w.inquorate, w.open)
	}
	m.setups = rep.meas.setups
	rep.meas = m
	rep.attempted = w.started
	rep.failed = w.started - w.ok
	if w.badOutcome > 0 || w.repairs > 0 {
		// Identical replicas must agree: a repair or an inconclusive poll
		// is a wrong answer.
		rep.correct = false
	}
	rep.samples["op_latency"] = len(w.voteWork)
	rep.samples["vote_latency"] = len(w.voteLat)
	rep.samples["poll_latency"] = len(w.pollLat)
	rep.samples["setup"] = len(m.setups)
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d nodes x %d AUs x %d KiB, poll interval %v: offered %.1f polls/s, %.1f successful polls/s", shape.nodes, shape.aus, shape.auSize>>10, shape.interval, shape.offered(), float64(w.ok)/m.window.Seconds()),
		fmt.Sprintf("polls started %d: %d successful, %d inquorate, %d inconclusive or repair-failed, %d not concluded", w.started, w.ok, w.inquorate, w.badOutcome, w.open),
		"poll latency starts at PollStarted: an actor stall that delays a poll's start shows only as node.polls_ok_per_s below the offered rate")
	rep.notes = append(rep.notes, w.unsuccessful...)
	if !cfg.trace {
		return rep, nil
	}

	// Traced half: replica wrappers, observer spans and a CPU profile.
	l := rep.layers
	l["node.offered_polls_per_s"] = shape.offered()
	l["node.polls_ok_per_s"] = float64(w.ok) / m.window.Seconds()
	l["node.poll_p50_ms"] = quantile(millis(w.pollLat), 0.5)
	l["node.poll_p95_ms"] = quantile(millis(w.pollLat), 0.95)
	l["node.vote_p50_ms"] = quantile(millis(w.voteLat), 0.5)
	l["node.vote_p95_ms"] = quantile(millis(w.voteLat), 0.95)
	if w.started > 0 {
		l["node.poll_fail_share"] = float64(w.started-w.ok) / float64(w.started)
	}
	spans := &spanLog{}
	now := time.Now()
	for i := range rt.actor {
		rt.actor[i] = spans.open("node.actor", 0, 0, now)
	}
	rt.spans = spans
	obs.setSpans(spans)
	rt.on.Store(true)
	before := c.counters()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	m0, b0 := allocCounters()
	tm, tw := measureWindow(c, obs, shape, window)
	m1, b1 := allocCounters()
	self, err := prof.fold()
	if err != nil {
		return nil, err
	}
	rt.on.Store(false)
	obs.setSpans(nil)
	end := time.Now()
	for _, id := range rt.actor {
		spans.close(id, end)
	}
	after := c.counters()

	addSelfTimes(l, self)
	l["runtime.mallocs"] = float64(m1 - m0)
	l["runtime.alloc_mb"] = float64(b1-b0) / (1 << 20)
	rt.mu.Lock()
	l["content.vote_hash_calls"] = float64(rt.calls)
	l["content.vote_hash_mb"] = float64(rt.bytes) / (1 << 20)
	l["content.vote_hash_busy_s"] = rt.busy.Seconds()
	rt.mu.Unlock()
	dp := func(a, b uint64) float64 { return float64(b - a) }
	l["protocol.polls_started"] = dp(before.peer.PollsStarted, after.peer.PollsStarted)
	concluded := dp(before.peer.PollsConcluded(), after.peer.PollsConcluded())
	if concluded > 0 {
		l["protocol.poll_success_ratio"] = dp(before.peer.PollsSucceeded, after.peer.PollsSucceeded) / concluded
	}
	if inv := dp(before.peer.InvitesConsidered, after.peer.InvitesConsidered); inv > 0 {
		l["protocol.invite_refuse_ratio"] = dp(before.peer.InvitesRefused, after.peer.InvitesRefused) / inv
	}
	l["protocol.votes_supplied"] = dp(before.peer.VotesSupplied, after.peer.VotesSupplied)
	l["effort.defender_effort_s"] = after.effort - before.effort
	sent := dp(before.transport.Sent, after.transport.Sent)
	drops := dp(before.transport.Drops, after.transport.Drops)
	l["node.transport_sent"] = sent
	if sent+drops > 0 {
		l["node.transport_drop_ratio"] = drops / (sent + drops)
	}
	var qw telemetry.Snapshot
	for _, n := range c.nodes {
		qw.Merge(n.Telemetry().QueueWait.Snapshot())
	}
	l["node.queue_wait_p95_ms"] = qw.Quantile(0.95) * 1e3
	l["store.fsyncs"] = dp(before.store.Fsyncs, after.store.Fsyncs)
	l["store.manifest_writes"] = dp(before.store.ManifestWrites, after.store.ManifestWrites)
	l["store.manifest_commits"] = dp(before.store.ManifestCommits, after.store.ManifestCommits)
	l["store.blocks_scanned"] = dp(before.store.BlocksScanned, after.store.BlocksScanned)
	addOverhead(l, cpuMsPerOp(m.cpu, m.ops), cpuMsPerOp(tm.cpu, tm.ops))
	l["trace.spans"] = float64(spans.len())
	rep.attempted += tw.started
	rep.failed += tw.started - tw.ok
	if tw.ok == 0 || tw.badOutcome > 0 || tw.repairs > 0 {
		rep.correct = false
	}
	return rep, spans.write(cfg.spanPath)
}
