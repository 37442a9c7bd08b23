package world

import (
	"math"
	"testing"

	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sim"
)

func tinyConfig() Config {
	cfg := Default()
	cfg.Peers = 20
	cfg.AUs = 2
	cfg.AUSize = 16 << 20
	cfg.Duration = sim.Year / 2
	cfg.DamageDiskYears = 0 // no damage unless the test wants it
	return cfg
}

func TestNewValidation(t *testing.T) {
	bad := tinyConfig()
	bad.Peers = 0
	if _, err := New(bad); err == nil {
		t.Error("zero peers accepted")
	}
	bad = tinyConfig()
	bad.Peers = 5 // below quorum 10
	if _, err := New(bad); err == nil {
		t.Error("population below quorum accepted")
	}
	bad = tinyConfig()
	bad.Protocol.Quorum = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid protocol config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64, uint64) {
		cfg := tinyConfig()
		cfg.DamageDiskYears = 1
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Run()
		return w.Engine.Executed, w.Metrics.AccessFailureProbability(), w.Metrics.SuccessfulPolls()
	}
	e1, a1, s1 := run()
	e2, a2, s2 := run()
	if e1 != e2 || a1 != a2 || s1 != s2 {
		t.Errorf("runs with the same seed diverge: (%d,%v,%d) vs (%d,%v,%d)", e1, a1, s1, e2, a2, s2)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := tinyConfig()
	cfg.DamageDiskYears = 1
	w1, _ := New(cfg)
	w1.Run()
	cfg2 := cfg
	cfg2.Seed = 999
	w2, _ := New(cfg2)
	w2.Run()
	if w1.Engine.Executed == w2.Engine.Executed && w1.Metrics.VotesSupplied == w2.Metrics.VotesSupplied {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestPopulationWiring(t *testing.T) {
	cfg := tinyConfig()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Peers) != cfg.Peers {
		t.Fatalf("built %d peers", len(w.Peers))
	}
	for i, p := range w.Peers {
		if p.ID() != PeerIDOf(i) {
			t.Errorf("peer %d has ID %v", i, p.ID())
		}
		if got := len(p.AUs()); got != cfg.AUs {
			t.Errorf("peer %d preserves %d AUs", i, got)
		}
		refs := p.ReferenceList(1)
		want := cfg.Protocol.RefListTarget
		if want > cfg.Peers-1 {
			want = cfg.Peers - 1
		}
		if len(refs) != want {
			t.Errorf("peer %d reference list %d, want %d", i, len(refs), want)
		}
		for _, r := range refs {
			if r == p.ID() {
				t.Errorf("peer %d lists itself", i)
			}
		}
	}
	if len(w.Specs()) != cfg.AUs {
		t.Error("spec catalogue wrong")
	}
}

func TestSeedAcquaintance(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = sim.Day // barely run
	w, _ := New(cfg)
	w.Run()
	// After seeding, every pair should be at least Even (decay aside).
	p := w.Peers[0]
	now := reputation.Time(w.Engine.Now())
	even := 0
	for _, q := range w.Peers[1:] {
		if g := p.Reputation(1).GradeOf(now, q.ID()); g >= reputation.Even {
			even++
		}
	}
	if even < cfg.Peers-1 {
		t.Errorf("only %d acquaintances seeded", even)
	}
}

func TestBurstDelivery(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol.DropUnknown = 0.5 // give admission a chance quickly
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := w.Peers[0]
	sent := -1
	burst := &BurstPayload{
		First: ids.MinionBase + 10,
		Count: 50,
		Template: protocol.Msg{
			Type:   protocol.MsgPoll,
			AU:     1,
			PollID: 7,
		},
		Sent: func(n int) { sent = n },
	}
	// Deliver directly (unit test of the expansion logic).
	burst.Deliver(w, 0, victim)
	if sent <= 0 || sent > 50 {
		t.Fatalf("burst emitted %d", sent)
	}
	rep := victim.Reputation(1)
	if rep.AdmittedUnknown != 1 {
		t.Errorf("admitted %d unknown invitations, want exactly 1 (stream stops)", rep.AdmittedUnknown)
	}
	// The stream stopped at the first admission.
	if uint64(sent) != rep.AdmittedUnknown+rep.DroppedRandom {
		t.Errorf("emitted %d != admitted %d + dropped %d", sent, rep.AdmittedUnknown, rep.DroppedRandom)
	}
}

func TestBurstChargesLedger(t *testing.T) {
	cfg := tinyConfig()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger := effort.NewLedger()
	burst := &BurstPayload{
		First: ids.MinionBase + 100,
		Count: 10,
		Template: protocol.Msg{
			Type: protocol.MsgPoll, AU: 1, PollID: 9,
		},
		MakeProof: func(ctx []byte) (effort.Proof, effort.Seconds) {
			return effort.SimProof{Effort: 2, Genuine: true}, 2
		},
		Ledger: ledger,
	}
	burst.Deliver(w, 0, w.Peers[0])
	if ledger.Total == 0 {
		t.Error("burst proofs not charged")
	}
	if ledger.Total > 2*10 {
		t.Error("overcharged")
	}
}

func TestDamageProcessRate(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 2 * sim.Year
	cfg.DamageDiskYears = 1
	cfg.AUsPerDisk = 2 // one disk per peer at AUs=2
	w, _ := New(cfg)
	w.Run()
	// Expected events: peers x duration/diskyears = 20 x 2 = 40.
	got := float64(w.Metrics.DamageEvents)
	if got < 20 || got > 65 {
		t.Errorf("damage events %v, want ~40", got)
	}
}

func TestDefenderEffortAggregation(t *testing.T) {
	cfg := tinyConfig()
	w, _ := New(cfg)
	w.Run()
	if w.DefenderEffort() <= 0 {
		t.Fatal("no defender effort recorded")
	}
	byKind := w.DefenderEffortByKind()
	var sum effort.Seconds
	for _, v := range byKind {
		sum += v
	}
	if diff := float64(sum - w.DefenderEffort()); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("kind sum %v != total %v", sum, w.DefenderEffort())
	}
	for _, kind := range []string{protocol.KindVote, protocol.KindEval, protocol.KindIntroGen} {
		if byKind[kind] <= 0 {
			t.Errorf("no %q effort recorded", kind)
		}
	}
}

// worldFingerprint captures every observable of a finished run, with floats
// kept as exact bit patterns, so two runs compare bit for bit rather than
// approximately.
type worldFingerprint struct {
	events       uint64
	accessFail   uint64 // Float64bits
	succPolls    uint64
	totalPolls   uint64
	votes        uint64
	alarms       uint64
	damageEvents uint64
	repairsFixed uint64
	damagedNow   int
	defEffort    uint64 // Float64bits
	advEffort    uint64 // Float64bits
	netSent      uint64
	netDelivered uint64
	netDropped   uint64
	netBytes     uint64
	joined       int
}

func fingerprintRun(t *testing.T, cfg Config, churn Churn) (worldFingerprint, []uint64) {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stats *JoinStats
	if churn.MaxJoins > 0 {
		stats = w.EnableChurn(churn)
	}
	w.Run()
	fp := worldFingerprint{
		events:       w.EventsExecuted(),
		accessFail:   math.Float64bits(w.Metrics.AccessFailureProbability()),
		succPolls:    w.Metrics.SuccessfulPolls(),
		totalPolls:   w.Metrics.TotalPolls(),
		votes:        w.Metrics.VotesSupplied,
		alarms:       w.Metrics.Alarms,
		damageEvents: w.Metrics.DamageEvents,
		repairsFixed: w.Metrics.RepairsFixed,
		damagedNow:   w.Metrics.DamagedNow(),
		defEffort:    math.Float64bits(float64(w.DefenderEffort())),
		advEffort:    math.Float64bits(float64(w.AdversaryLedger.Total)),
		netSent:      w.Net.Sent,
		netDelivered: w.Net.Delivered,
		netDropped:   w.Net.DroppedStoppage,
		netBytes:     w.Net.BytesDelivered,
	}
	ledgers := make([]uint64, 0, len(w.Peers))
	for _, p := range w.Peers {
		ledgers = append(ledgers, math.Float64bits(float64(p.Ledger().Total)))
	}
	if stats != nil {
		fp.joined = stats.Joined
	}
	return fp, ledgers
}
