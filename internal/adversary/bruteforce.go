package adversary

import (
	"fmt"

	"lockss/internal/content"
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/netsim"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/sim"
	"lockss/internal/world"
)

// Defection identifies where the brute-force adversary abandons the
// protocol (Table 1 of the paper).
type Defection uint8

const (
	// DefectIntro: provide the introductory effort in Poll, then never send
	// the PollProof (a reservation attack).
	DefectIntro Defection = iota
	// DefectRemaining: provide the remaining effort in PollProof, then
	// never send an EvaluationReceipt (a wasteful attack).
	DefectRemaining
	// DefectNone: participate fully, including a valid receipt.
	DefectNone
)

func (d Defection) String() string {
	switch d {
	case DefectIntro:
		return "INTRO"
	case DefectRemaining:
		return "REMAINING"
	case DefectNone:
		return "NONE"
	}
	return "invalid"
}

// BruteForce is the effortful application-level adversary of §7.4: it
// continuously sends poll invitations with valid introductory efforts from
// a pool of in-debt identities (conservatively initialized to a debt grade
// at every victim), getting one invitation admitted per victim per
// refractory period, and then defects at the configured stage. An insider
// oracle lets it skip volleys that a victim's schedule would refuse anyway,
// sparing it wasted introductory efforts.
type BruteForce struct {
	// Defection selects the strategy row of Table 1.
	Defection Defection
	// Minions is the in-debt identity pool size.
	Minions int
	// VolleyLimit bounds invitations per volley (expected tries to
	// admission at a 0.80 drop rate is 5).
	VolleyLimit int
	// Coverage is the attacked fraction of the population (Table 1: all).
	Coverage float64

	w       *world.World
	costs   effort.CostModel
	efforts map[content.AUID]effort.PollEffort
	pool    []ids.PeerID
	pollSeq uint64
}

// Name implements Adversary.
func (a *BruteForce) Name() string {
	return fmt.Sprintf("brute-force(%v)", a.Defection)
}

// Install implements Adversary.
func (a *BruteForce) Install(w *world.World) {
	if a.Minions <= 0 {
		a.Minions = 40
	}
	if a.VolleyLimit <= 0 {
		a.VolleyLimit = 25
	}
	if a.Coverage <= 0 {
		a.Coverage = 1.0
	}
	a.w = w
	a.costs = effort.DefaultCostModel()
	a.efforts = make(map[content.AUID]effort.PollEffort)
	for _, spec := range w.Specs() {
		a.efforts[spec.ID] = a.costs.PollEffortFor(spec.Size, spec.Blocks())
	}

	// Register the minion pool; every minion can receive replies.
	a.pool = make([]ids.PeerID, a.Minions)
	for i := range a.pool {
		id := ids.MinionBase + 1000 + ids.PeerID(i)
		a.pool[i] = id
		w.Net.AddNode(id, netsim.Link{Bandwidth: netsim.FastEth, Latency: sim.Millisecond},
			func(from ids.PeerID, payload any, size int) {
				if m, ok := payload.(*protocol.Msg); ok {
					a.handleReply(id, from, m)
				}
			})
	}

	// Conservative initialization: all minions are in debt at all victims.
	rnd := w.Root.Child("adversary/bruteforce")
	n := int(a.Coverage*float64(len(w.Peers)) + 0.999999)
	if n > len(w.Peers) {
		n = len(w.Peers)
	}
	for _, vi := range rnd.Sample(len(w.Peers), n) {
		victim := w.Peers[vi]
		for _, au := range victim.AUs() {
			for _, m := range a.pool {
				victim.SeedGrade(au, m, reputation.Debt)
			}
			a.attackLoop(victim, au, rnd.ChildN("victim", vi))
		}
	}
}

// attackLoop sends one effortful volley per (victim, AU) refractory period,
// consulting the oracle first.
func (a *BruteForce) attackLoop(victim *protocol.Peer, au content.AUID, rnd interface{ Float64() float64 }) {
	w := a.w
	refractory := sim.Duration(w.Cfg.Protocol.Refractory)
	var tick func()
	tick = func() {
		delay := sim.Duration(float64(refractory) * (1.02 + 0.1*rnd.Float64()))
		if a.oracleSaysSend(victim, au) {
			a.sendVolley(victim.ID(), au)
		} else {
			// Nothing schedulable at the victim: check back sooner, the
			// oracle costs the adversary nothing.
			delay = refractory / 4
		}
		w.Engine.After(delay, tick)
	}
	w.Engine.After(sim.Duration(float64(refractory)*rnd.Float64()), tick)
}

// oracleSaysSend uses the adversary's insider information: skip the volley
// if the victim is still refractory (it would be auto-rejected) or its
// schedule cannot accommodate a vote (it would refuse Busy), either of
// which would waste introductory efforts.
func (a *BruteForce) oracleSaysSend(victim *protocol.Peer, au content.AUID) bool {
	now := schedTime(a.w.Engine.Now())
	rep := victim.Reputation(au)
	if rep == nil || rep.InRefractory(reputation.Time(now)) {
		return false
	}
	pe := a.efforts[au]
	cfg := a.w.Cfg.Protocol
	voteDur := sched.Duration((pe.VoteHash + pe.VoteProof).Duration())
	_, ok := victim.Schedule().FindSlot(now+schedTime(cfg.ProofTimeout), voteDur, now+schedTime(cfg.VoteWindow))
	return ok
}

// sendVolley emits one burst of effortful invitations from the in-debt
// pool, paying one introductory effort per invitation actually sent.
func (a *BruteForce) sendVolley(victim ids.PeerID, au content.AUID) {
	a.pollSeq++
	now := a.w.Engine.Now()
	cfg := a.w.Cfg.Protocol
	intro := a.efforts[au].Intro
	burst := &world.BurstPayload{
		Pool:  a.pool,
		Count: a.VolleyLimit,
		Template: protocol.Msg{
			Type:         protocol.MsgPoll,
			AU:           au,
			PollID:       a.pollSeq << 8, // distinct per volley
			VoteBy:       schedTime(now) + schedTime(cfg.VoteWindow),
			PollDeadline: schedTime(now) + schedTime(cfg.PollInterval),
		},
		Ledger: a.w.AdversaryLedger,
	}
	// With effort balancing disabled (ablation), invitations need no proof
	// and the attack becomes effortless for the adversary.
	if cfg.EffortBalancing {
		burst.MakeProof = func(ctx []byte) (effort.Proof, effort.Seconds) {
			return effort.SimProof{Effort: intro, Genuine: true}, intro
		}
	}
	a.w.Net.Send(sourceNodeFor(a.pool[0]), victim, burst, burst.BurstWireSize())
}

// sourceNodeFor picks the network attachment for a burst: the first pool
// minion doubles as the cluster's uplink.
func sourceNodeFor(first ids.PeerID) ids.PeerID { return first }

// handleReply reacts to victim responses according to the defection
// strategy.
func (a *BruteForce) handleReply(minion ids.PeerID, victim ids.PeerID, m *protocol.Msg) {
	switch m.Type {
	case protocol.MsgPollAck:
		if !m.Accept || a.Defection == DefectIntro {
			return // INTRO: desert after the introductory effort
		}
		// Supply the remaining effort and a nonce.
		pe := a.efforts[m.AU]
		reply := &protocol.Msg{
			Type:   protocol.MsgPollProof,
			AU:     m.AU,
			PollID: m.PollID,
			Poller: minion,
			Voter:  victim,
		}
		r := a.w.Root.Child("adversary/nonce")
		for i := 0; i < len(reply.Nonce); i += 8 {
			v := r.Uint64()
			for j := 0; j < 8 && i+j < len(reply.Nonce); j++ {
				reply.Nonce[i+j] = byte(v >> (8 * j))
			}
		}
		if a.w.Cfg.Protocol.EffortBalancing {
			reply.Proof = effort.SimProof{Effort: pe.Remainder, Genuine: true}
			a.w.AdversaryLedger.Charge("attack-remainder", pe.Remainder)
		}
		a.w.Net.Send(minion, victim, reply, reply.WireSize())
	case protocol.MsgVote:
		if a.Defection != DefectNone {
			return // REMAINING: desert after the vote arrives
		}
		// Full participation: evaluate the vote (the adversary's copy is
		// magically correct, but evaluation effort is still effort) and
		// return a valid receipt.
		pe := a.efforts[m.AU]
		a.w.AdversaryLedger.Charge("attack-eval", pe.EvalHash)
		ctx := protocol.PollContext(minion, victim, m.AU, m.PollID, "vote")
		var receipt effort.Receipt
		if m.Proof != nil {
			receipt = effort.SimReceiptFor(ctx, m.Proof.Cost())
		}
		a.w.Net.Send(minion, victim, &protocol.Msg{
			Type:    protocol.MsgEvaluationReceipt,
			AU:      m.AU,
			PollID:  m.PollID,
			Poller:  minion,
			Voter:   victim,
			Receipt: receipt,
		}, 64)
	case protocol.MsgRepairRequest:
		// Frivolous repairs are never requested from minions: victims only
		// request repairs from their own polls' voters, and minions never
		// vote. Ignore defensively.
	}
}
