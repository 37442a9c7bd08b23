package protocol

import (
	"testing"
	"time"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/prng"
	"lockss/internal/sched"
	"lockss/internal/sim"
)

// fakeEnv drives a Peer deterministically in unit tests: timers run on a
// sim.Engine, sends are recorded, proofs are symbolic.
type fakeEnv struct {
	eng  *sim.Engine
	rnd  *prng.Source
	sent []sentMsg
}

type sentMsg struct {
	to ids.PeerID
	m  *Msg
}

func newFakeEnv(seed uint64) *fakeEnv {
	return &fakeEnv{eng: sim.NewEngine(), rnd: prng.New(seed)}
}

func (e *fakeEnv) Now() sched.Time { return sched.Time(e.eng.Now()) }

func (e *fakeEnv) After(d sched.Duration, fn func()) TimerID {
	return TimerID(e.eng.After(d, fn))
}

func (e *fakeEnv) Cancel(t TimerID) bool {
	return e.eng.Cancel(sim.EventID(t))
}

func (e *fakeEnv) Rand() *prng.Source { return e.rnd }

func (e *fakeEnv) Send(to ids.PeerID, m *Msg) {
	e.sent = append(e.sent, sentMsg{to: to, m: m})
}

func (e *fakeEnv) MakeProof(ctx []byte, cost effort.Seconds) (effort.Proof, effort.Receipt) {
	return effort.SimProof{Effort: cost, Genuine: true}, effort.SimReceiptFor(ctx, cost)
}

func (e *fakeEnv) VerifyProof(ctx []byte, p effort.Proof, minCost effort.Seconds) bool {
	return p != nil && p.Valid(ctx) && p.Cost() >= minCost-1e-9
}

func (e *fakeEnv) EvalReceipt(ctx []byte, p effort.Proof) (effort.Receipt, bool) {
	if p == nil || !p.Valid(ctx) {
		return effort.Receipt{}, false
	}
	return effort.SimReceiptFor(ctx, p.Cost()), true
}

// take drains and returns recorded sends.
func (e *fakeEnv) take() []sentMsg {
	out := e.sent
	e.sent = nil
	return out
}

// runToSend fires events in time order up to deadline, returning right
// after the first event that leaves a send recorded, so a scripted reply is
// scheduled at the instant its trigger went out. It reports whether an event
// fired and a send is waiting to be taken.
func (e *fakeEnv) runToSend(deadline sim.Time) bool {
	e.eng.SetProgress(1, func(sim.Time, uint64) {
		if len(e.sent) > 0 {
			e.eng.Stop()
		}
	})
	defer e.eng.SetProgress(0, nil)
	return e.eng.Run(deadline) > 0 && len(e.sent) > 0
}

// lastTo returns the last message sent to a peer, or nil.
func (e *fakeEnv) lastTo(to ids.PeerID, typ MsgType) *Msg {
	for i := len(e.sent) - 1; i >= 0; i-- {
		if e.sent[i].to == to && e.sent[i].m.Type == typ {
			return e.sent[i].m
		}
	}
	return nil
}

// testConfig compresses timescales for unit tests.
func testConfig() Config {
	c := DefaultConfig()
	c.Quorum = 3
	c.InnerCircle = 5
	c.MaxDisagree = 1
	c.OuterCircle = 2
	c.Nominations = 3
	c.PollInterval = 100 * time.Hour
	c.VoteWindow = 10 * time.Hour
	c.AckTimeout = time.Hour
	c.ProofTimeout = time.Hour
	c.VoteSlack = time.Hour
	c.ReceiptSlack = 2 * time.Hour
	c.RepairTimeout = time.Hour
	c.Refractory = 2 * time.Hour
	c.GradeDecay = 1000 * time.Hour
	c.FrivolousRepairProb = 0
	c.RefListTarget = 6
	c.RefListMax = 10
	c.ConsiderBurst = 100 // effectively unlimited unless a test tightens it
	c.BlockSize = 1024
	return c
}

// testSpecN builds a small AU spec.
func testSpecN(blocks int) content.AUSpec {
	return content.AUSpec{ID: 1, Name: "au", Size: int64(blocks) * 1024, BlockSize: 1024}
}

// newTestPeer builds a peer with one symbolic AU and the given reference
// list, without starting polls.
func newTestPeer(t *testing.T, env *fakeEnv, id ids.PeerID, cfg Config, refs []ids.PeerID) (*Peer, *content.SimReplica) {
	t.Helper()
	costs := effort.DefaultCostModel()
	p, err := New(id, cfg, costs, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	replica := content.NewSimReplica(testSpecN(4), uint64(id))
	if err := p.AddAU(replica, refs); err != nil {
		t.Fatal(err)
	}
	return p, replica
}
