// Package world assembles complete simulated LOCKSS populations: the event
// engine, the network model, loyal peers with their replicas and bootstrap
// state, the storage-damage process, and metrics collection. Adversaries
// attach to a World through the hooks it exposes. A world runs on one event
// engine, so every observable — event order, metrics, ledgers, RNG streams —
// is a pure function of the Config.
package world

import (
	"fmt"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/metrics"
	"lockss/internal/netsim"
	"lockss/internal/prng"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/sim"
	"lockss/internal/telemetry"
)

// Config sizes a simulated population. The defaults in Default() follow the
// paper's §6.3 operating point.
type Config struct {
	// Seed drives all randomness in the run.
	Seed uint64
	// Peers is the loyal population size (paper: 100).
	Peers int
	// AUs is the number of archival units each peer preserves (paper: 50
	// per layer, up to 600 via layering).
	AUs int
	// AUSize is the content size per AU in bytes (paper: 0.5 GB).
	AUSize int64
	// Protocol is the protocol operating point.
	Protocol protocol.Config
	// DamageDiskYears is the mean time between undetected storage damage
	// events per disk, in years (paper: 1 to 5); zero disables damage.
	DamageDiskYears float64
	// AUsPerDisk divides the collection into disks for the damage process
	// (paper: 50).
	AUsPerDisk int
	// Friends is the operator-maintained friends list size per peer.
	Friends int
	// SeedAllEven initializes every loyal pair at an Even grade, modeling a
	// deployment with history rather than a cold bootstrap. O(Peers²·AUs) —
	// keep it off at 10k+ peer scales.
	SeedAllEven bool
	// HashBytesPerSec overrides the cost model's hashing throughput when
	// positive (ablations use it to raise peer busyness).
	HashBytesPerSec float64
	// Costs, when non-nil, replaces the default cost model wholesale (the
	// cross-backend harness uses it to charge simulated peers the same costs
	// a real node would). HashBytesPerSec still applies on top.
	Costs *effort.CostModel
	// Duration is the simulated horizon.
	Duration sim.Duration
	// Telemetry, when non-nil, receives every peer's poll-lifecycle events
	// teed alongside the metrics collector: the same histograms a real node
	// records, fed from virtual time. Bucket counts depend only on virtual
	// timestamps, so histogram snapshots are identical from run to run;
	// the flight-recorder ring's interleaving is not deterministic.
	Telemetry *telemetry.Telemetry
}

// Default returns the paper-scale configuration (one 50-AU layer).
func Default() Config {
	return Config{
		Seed:            1,
		Peers:           100,
		AUs:             50,
		AUSize:          512 << 20,
		Protocol:        protocol.DefaultConfig(),
		DamageDiskYears: 5,
		AUsPerDisk:      50,
		Friends:         5,
		SeedAllEven:     true,
		Duration:        2 * sim.Year,
	}
}

// World is one assembled simulation.
type World struct {
	Cfg Config
	// Engine runs every event of the world: peers, damage, adversaries and
	// churn all schedule on it.
	Engine *sim.Engine
	Net    *netsim.Network
	Peers  []*protocol.Peer
	// Metrics is the run's collector; read it once Run returns.
	Metrics *metrics.Collector
	// AdversaryLedger accumulates attacker effort (effortful attacks).
	AdversaryLedger *effort.Ledger
	// Root is the root randomness source; adversaries derive children.
	Root *prng.Source

	specs []content.AUSpec

	// proofCache interns the boxed symbolic proofs MakeProof hands out.
	// Effort costs come from the per-AU cost model, so a run sees only a
	// handful of distinct values; interning avoids re-boxing an identical
	// immutable SimProof on every message.
	proofCache map[effort.Seconds]effort.Proof
}

// Env adapts a World to protocol.Env for one peer.
type Env struct {
	w   *World
	id  ids.PeerID
	rnd *prng.Source
}

// Now implements protocol.Env.
func (e *Env) Now() sched.Time { return sched.Time(e.w.Engine.Now()) }

// After implements protocol.Env. Engine event IDs are issued from 1, so they
// serve directly as protocol timer IDs (zero = none) without a cancel
// closure per timer.
func (e *Env) After(d sched.Duration, fn func()) protocol.TimerID {
	return protocol.TimerID(e.w.Engine.After(sim.Duration(d), fn))
}

// Cancel implements protocol.Env.
func (e *Env) Cancel(t protocol.TimerID) bool {
	return e.w.Engine.Cancel(sim.EventID(t))
}

// Rand implements protocol.Env.
func (e *Env) Rand() *prng.Source { return e.rnd }

// Send implements protocol.Env.
func (e *Env) Send(to ids.PeerID, m *protocol.Msg) {
	e.w.Net.Send(e.id, to, m, m.WireSize())
}

// MakeProof implements protocol.Env with a symbolic proof; the effort cost
// is charged by the protocol through the peer's ledger and schedule.
func (e *Env) MakeProof(ctx []byte, cost effort.Seconds) (effort.Proof, effort.Receipt) {
	p, ok := e.w.proofCache[cost]
	if !ok {
		p = effort.SimProof{Effort: cost, Genuine: true}
		e.w.proofCache[cost] = p
	}
	return p, effort.SimReceiptFor(ctx, cost)
}

// VerifyProof implements protocol.Env.
func (e *Env) VerifyProof(ctx []byte, p effort.Proof, minCost effort.Seconds) bool {
	return p != nil && p.Valid(ctx) && p.Cost() >= minCost-1e-9
}

// EvalReceipt implements protocol.Env.
func (e *Env) EvalReceipt(ctx []byte, p effort.Proof) (effort.Receipt, bool) {
	if p == nil || !p.Valid(ctx) {
		return effort.Receipt{}, false
	}
	return effort.SimReceiptFor(ctx, p.Cost()), true
}

// PeerIDOf maps a peer index to its PeerID (1-based).
func PeerIDOf(index int) ids.PeerID { return ids.PeerID(index + 1) }

// observerFor is the protocol observer for a peer: the metrics collector,
// teed into the world's telemetry recorder when one is configured.
func (w *World) observerFor() protocol.Observer {
	if w.Cfg.Telemetry == nil {
		return w.Metrics
	}
	return protocol.TeeObserver(w.Metrics, w.Cfg.Telemetry)
}

// New assembles a world. Background load hooks (for 600-AU layering) may be
// installed on peer schedules before Run.
func New(cfg Config) (*World, error) {
	if cfg.Peers <= 0 || cfg.AUs <= 0 {
		return nil, fmt.Errorf("world: need positive peers and AUs")
	}
	if err := cfg.Protocol.Validate(); err != nil {
		return nil, err
	}
	if cfg.Peers <= cfg.Protocol.Quorum {
		return nil, fmt.Errorf("world: population %d cannot sustain quorum %d", cfg.Peers, cfg.Protocol.Quorum)
	}
	w := &World{
		Cfg:             cfg,
		Engine:          sim.NewEngine(),
		Metrics:         metrics.NewCollectorSized(cfg.Peers * cfg.AUs),
		AdversaryLedger: effort.NewLedger(),
		Root:            prng.New(cfg.Seed),
		proofCache:      make(map[effort.Seconds]effort.Proof),
	}
	// Loyal peers plus a margin for adversary-controlled nodes.
	w.Net = netsim.NewSized(w.Engine, cfg.Peers+8)

	// AU catalogue.
	w.specs = make([]content.AUSpec, cfg.AUs)
	for i := range w.specs {
		w.specs[i] = content.AUSpec{
			ID:        content.AUID(i + 1),
			Name:      fmt.Sprintf("au-%03d", i+1),
			Size:      cfg.AUSize,
			BlockSize: cfg.Protocol.BlockSize,
		}
	}

	costs := effort.DefaultCostModel()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	if cfg.HashBytesPerSec > 0 {
		costs.HashBytesPerSec = cfg.HashBytesPerSec
	}
	linkRnd := w.Root.Child("links")
	bootRnd := w.Root.Child("bootstrap")

	// Build peers.
	w.Peers = make([]*protocol.Peer, cfg.Peers)
	for i := 0; i < cfg.Peers; i++ {
		id := PeerIDOf(i)
		env := &Env{w: w, id: id, rnd: w.Root.ChildN("peer", i)}
		p, err := protocol.New(id, cfg.Protocol, costs, env, w.observerFor())
		if err != nil {
			return nil, err
		}
		w.Peers[i] = p
		w.addNode(id, netsim.RandomLink(linkRnd), p)
	}

	// Friends lists: a random sample per peer.
	for i, p := range w.Peers {
		n := cfg.Friends
		if n > cfg.Peers-1 {
			n = cfg.Peers - 1
		}
		friends := make([]ids.PeerID, 0, n)
		for _, j := range bootRnd.Sample(cfg.Peers, n+1) {
			if j != i && len(friends) < n {
				friends = append(friends, PeerIDOf(j))
			}
		}
		p.SetFriends(friends)
	}

	// Replicas and bootstrap reference lists.
	for i, p := range w.Peers {
		for _, spec := range w.specs {
			salt := uint64(i+1)<<20 | uint64(spec.ID)
			replica := content.NewSimReplica(spec, salt)
			refs := make([]ids.PeerID, 0, cfg.Protocol.RefListTarget)
			for _, j := range bootRnd.Sample(cfg.Peers, cfg.Protocol.RefListTarget+1) {
				if j != i && len(refs) < cfg.Protocol.RefListTarget {
					refs = append(refs, PeerIDOf(j))
				}
			}
			if err := p.AddAU(replica, refs); err != nil {
				return nil, err
			}
			w.Metrics.RegisterReplica(p.ID(), spec.ID, replica)
		}
	}
	return w, nil
}

// addNode registers a peer on the network, dispatching each delivered
// payload to it and expanding invitation bursts (see BurstPayload) into
// individual protocol messages.
func (w *World) addNode(id ids.PeerID, link netsim.Link, p *protocol.Peer) {
	w.Net.AddNode(id, link, func(from ids.PeerID, payload any, size int) {
		switch v := payload.(type) {
		case *protocol.Msg:
			p.Receive(from, v)
		case *BurstPayload:
			v.Deliver(w, 0, p)
		}
	})
}

// Specs returns the AU catalogue.
func (w *World) Specs() []content.AUSpec {
	out := make([]content.AUSpec, len(w.specs))
	copy(out, w.specs)
	return out
}

// Peer returns the i-th loyal peer.
func (w *World) Peer(i int) *protocol.Peer { return w.Peers[i] }

// SeedAcquaintance initializes the steady-state grade matrix.
func (w *World) seedAcquaintance() {
	if !w.Cfg.SeedAllEven {
		return
	}
	for _, p := range w.Peers {
		for _, au := range p.AUs() {
			for _, q := range w.Peers {
				if q.ID() != p.ID() {
					p.SeedGrade(au, q.ID(), reputation.Even)
				}
			}
		}
	}
}

// startDamage schedules the storage-damage Poisson process for each peer.
func (w *World) startDamage() {
	if w.Cfg.DamageDiskYears <= 0 {
		return
	}
	perDisk := w.Cfg.AUsPerDisk
	if perDisk <= 0 {
		perDisk = 50
	}
	// Damage events per peer per year: one per disk per DamageDiskYears,
	// with ceil(AUs/perDisk) disks.
	disks := (w.Cfg.AUs + perDisk - 1) / perDisk
	ratePerYear := float64(disks) / w.Cfg.DamageDiskYears
	meanGap := float64(sim.Year) / ratePerYear
	for i, p := range w.Peers {
		peer := p
		rnd := w.Root.ChildN("damage", i)
		var schedule func()
		schedule = func() {
			gap := sim.Duration(rnd.ExpFloat64(meanGap))
			w.Engine.After(gap, func() {
				aus := peer.AUs()
				au := aus[rnd.Intn(len(aus))]
				replica := peer.Replica(au)
				block := rnd.Intn(replica.Spec().Blocks())
				replica.Damage(block)
				w.Metrics.OnDamage(peer.ID(), au, sched.Time(w.Engine.Now()))
				schedule()
			})
		}
		schedule()
	}
}

// Run seeds acquaintance, starts peers and damage, executes the horizon and
// finalizes metrics. Adversaries must be installed before Run.
func (w *World) Run() {
	w.seedAcquaintance()
	for _, p := range w.Peers {
		p.Start()
	}
	w.startDamage()
	w.Engine.Run(sim.Time(w.Cfg.Duration))
	w.Metrics.Finalize(sched.Time(w.Engine.Now()))
}

// EventsExecuted returns the number of events the world's engine has run.
func (w *World) EventsExecuted() uint64 { return w.Engine.Executed }

// InstallProgress arranges for fn to be called every stride executed events
// with the engine's virtual time and the executed-event count.
func (w *World) InstallProgress(stride uint64, fn func(vt sim.Time, events uint64)) {
	w.Engine.SetProgress(stride, fn)
}

// DefenderEffort sums all loyal peers' ledgers.
func (w *World) DefenderEffort() effort.Seconds {
	var total effort.Seconds
	for _, p := range w.Peers {
		total += p.Ledger().Total
	}
	return total
}

// DefenderEffortByKind aggregates loyal ledgers per kind.
func (w *World) DefenderEffortByKind() map[string]effort.Seconds {
	out := make(map[string]effort.Seconds)
	for _, p := range w.Peers {
		for k, v := range p.Ledger().ByKind {
			out[k] += v
		}
	}
	return out
}
