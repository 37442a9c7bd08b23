package protocol

import (
	"testing"

	"lockss/internal/content"
	"lockss/internal/ids"
	"lockss/internal/sim"
)

// TestEvalCorruptRepairSupplierRetried: when the landslide says the poller
// is damaged but the first repair supplier is itself damaged at that block
// (so its repair leaves the block corrupt), the poller must re-evaluate and
// fetch from another supplier.
func TestEvalCorruptRepairSupplierRetried(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	// Poller damaged at block 2; one voter is ALSO damaged at block 2 with
	// different corruption. The landslide (4 voters disagreeing with the
	// poller) includes that damaged voter; if it supplies the repair, the
	// block stays damaged and the loop must try another source.
	h.replica.Damage(2)
	h.voters[2].replica.Damage(2)
	h.p.Start()
	h.pump(3 * sim.Duration(cfg.PollInterval))
	if h.replica.Damaged() {
		t.Errorf("poller still damaged after retries: %v", h.replica.Snapshot())
	}
}

// TestEvalMultipleDamagedBlocks: several damaged blocks on the poller are
// all repaired within one poll.
func TestEvalMultipleDamagedBlocks(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.replica.Damage(0)
	h.replica.Damage(2)
	h.replica.Damage(3)
	h.p.Start()
	h.pump(2 * sim.Duration(cfg.PollInterval))
	if h.replica.Damaged() {
		t.Errorf("multi-block damage not fully repaired: %v", h.replica.Snapshot())
	}
	if h.p.Stats().RepairsReceived < 3 {
		t.Errorf("only %d repairs received", h.p.Stats().RepairsReceived)
	}
}

// TestEvalVoterAndPollerDamagedDifferentBlocks: a damaged voter must not
// stop the poller from repairing its own damage elsewhere.
func TestEvalVoterAndPollerDamagedDifferentBlocks(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.replica.Damage(1)
	h.voters[4].replica.Damage(3)
	h.p.Start()
	h.pump(2 * sim.Duration(cfg.PollInterval))
	if h.replica.Damaged() {
		t.Error("poller damage not repaired")
	}
	if h.p.Stats().PollsSucceeded == 0 {
		t.Error("poll did not succeed")
	}
}

// TestEvalReceiptsSentToAllVoters: every voter that supplied a vote gets an
// evaluation receipt, including damaged (excluded) ones.
func TestEvalReceiptsSentToAllVoters(t *testing.T) {
	cfg := pollerConfig()
	h := newPollerHarness(t, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	h.voters[3].replica.Damage(1) // will be excluded from the tally
	h.p.Start()
	h.pump(sim.Duration(cfg.PollInterval) * 3 / 2)
	for v := range h.voters {
		if h.receiptsGot[v] == 0 {
			t.Errorf("voter %v got no receipt", v)
		}
	}
}

// TestEvalLengthMismatchedVoteRejected: a vote body with the wrong block
// count is discarded and penalized rather than evaluated.
func TestEvalLengthMismatchedVoteRejected(t *testing.T) {
	env := newFakeEnv(21)
	cfg := testConfig()
	p, _ := newTestPeer(t, env, 1, cfg, []ids.PeerID{2, 3, 4, 5, 6})
	p.Start()
	// Drive until a PollProof goes out to some voter, then reply with a
	// malformed vote.
	deadline := env.eng.Now().Add(2 * sim.Duration(cfg.PollInterval))
	for {
		done := false
		for _, s := range env.take() {
			switch s.m.Type {
			case MsgPoll:
				env.eng.After(1, func() {
					p.Receive(s.to, &Msg{Type: MsgPollAck, AU: s.m.AU, PollID: s.m.PollID,
						Poller: p.ID(), Voter: s.to, Accept: true})
				})
			case MsgPollProof:
				bad := &Msg{Type: MsgVote, AU: s.m.AU, PollID: s.m.PollID,
					Poller: p.ID(), Voter: s.to,
					Vote: SimVote{NumBlocks: 99, Dam: []content.DamageEntry{}}}
				env.eng.After(1, func() { p.Receive(s.to, bad) })
				done = true
			}
		}
		if done {
			break
		}
		if !env.runToSend(deadline) {
			t.Fatal("no PollProof ever sent")
		}
	}
	// Let the bad vote arrive.
	for i := 0; i < 10; i++ {
		env.eng.Step()
	}
	if p.Stats().VotesReceived != 0 {
		t.Error("malformed vote accepted into the tally")
	}
}
