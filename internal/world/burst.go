package world

import (
	"lockss/internal/effort"
	"lockss/internal/ids"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
)

// BurstPayload models an adversary's stream of back-to-back poll
// invitations from distinct identities as a single network event, for
// simulation efficiency. The victim processes each invitation individually
// through its normal admission control path (random drops, refractory
// period, effort verification), exactly as if the messages had arrived one
// by one; the stream stops as soon as one invitation is admitted — the
// adversary, with total information awareness, observes the admission
// instantly and stops wasting effort.
//
// PerMsgCost, when non-zero, is charged to the attacker's ledger for every
// invitation actually emitted (the effortful brute-force adversary pays an
// introductory effort per attempt; the effortless admission-control flooder
// pays nothing).
type BurstPayload struct {
	// First is the identity of the first invitation; successive invitations
	// use consecutive identities when FreshIdentities is set, or identities
	// from the Pool otherwise.
	First ids.PeerID
	// Pool, when non-nil, supplies the rotating identity pool (brute-force
	// in-debt identities).
	Pool []ids.PeerID
	// Count bounds the number of invitations in the stream.
	Count int
	// Template is the invitation; Poller is overridden per copy.
	Template protocol.Msg
	// MakeProof, when non-nil, attaches a fresh effort proof per
	// invitation, bound to the invitation's context, and its generation
	// cost is charged to Ledger.
	MakeProof func(ctx []byte) (effort.Proof, effort.Seconds)
	// Ledger receives the attacker's per-invitation costs.
	Ledger *effort.Ledger
	// Sent, if non-nil, receives the number of invitations emitted.
	Sent func(n int)
}

// Deliver expands the burst at the victim. It stops early once an
// invitation is admitted (observed via the refractory clock or a created
// session), mirroring an attacker who sends until admitted. The int32
// parameter is ignored; it is kept for callers that still pass it.
func (b *BurstPayload) Deliver(w *World, _ int32, victim *protocol.Peer) {
	au := b.Template.AU
	rep := victim.Reputation(au)
	if rep == nil {
		return
	}
	now := sched.Time(w.Engine.Now())
	emitted := 0
	// One shared copy of the template serves the whole stream: the Poll
	// handler reads the message synchronously and never retains it, so only
	// the per-invitation fields are rewritten between deliveries.
	m := b.Template
	m.Voter = victim.ID()
	for i := 0; i < b.Count; i++ {
		// An admitted unknown/in-debt invitation puts the victim in its
		// refractory period; the attacker stops a stream that has achieved
		// its admission.
		if i > 0 && rep.InRefractory(reputation.Time(now)) {
			break
		}
		var from ids.PeerID
		if len(b.Pool) > 0 {
			from = b.Pool[i%len(b.Pool)]
		} else {
			from = b.First + ids.PeerID(i)
		}
		m.Poller = from
		if b.MakeProof != nil {
			proof, cost := b.MakeProof(m.Context("intro"))
			m.Proof = proof
			if b.Ledger != nil {
				b.Ledger.Charge("attack-intro", cost)
			}
		}
		emitted++
		victim.Receive(from, &m)
	}
	if b.Sent != nil {
		b.Sent(emitted)
	}
}

// BurstWireSize models the transfer size of a burst: the template size times
// the expected emission count is dominated by per-invitation payloads; we
// charge the full worst case, which only makes the attacker's network
// footprint look larger, never smaller.
func (b *BurstPayload) BurstWireSize() int {
	m := b.Template
	return m.WireSize() * b.Count
}
