package core

import (
	"convexagreement/internal/baplus"
	"convexagreement/internal/highcostca"
)

// Buffers is one party's long-value working set: grow-only buffers that
// the party's run owns and that every agreement it runs reuses, so a long
// value is rewritten in place instead of reallocated. It holds
//
//   - the bit buffer of v, the party's value, which FINDPREFIX re-anchors,
//     ADDLASTBLOCK/ADDLASTBIT extend and GETOUTPUT fills in place;
//   - the bit buffer of v_⊥, a copy: re-anchoring v in place would
//     otherwise rewrite the v_⊥ saved from it;
//   - the segment buffer FINDPREFIX marshals each iteration's window —
//     the widest lane's blocks, of which every lane is a prefix — into,
//     and the block buffer ADDLASTBLOCK hands its block to HIGHCOSTCA in
//     and takes the agreed one back through;
//   - Π_ℓBA+'s share buffer, where the agreed segment is also decoded,
//     the narrower lanes' edge stripes, the lanes' trees and its codec
//     scratch (baplus.Buffers);
//   - the protocol work set under it: Π_BA+'s frames and candidates and
//     the containers of every phase-king and Turpin–Coan instance of the
//     agreement, Π_ℤ's length search included (baplus.Buffers, ba.Work),
//     and HIGHCOSTCA's, for the block-size estimate and ADDLASTBLOCK
//     (highcostca.Work).
//
// The zero value is ready, and takes nothing from the heap until a value
// needs it: lanes of at most a root's length never touch the codec
// scratch. A nil *Buffers is a fresh set for one call, which is how tests
// and one-shot runs call the protocols. A set serves one agreement at a
// time; a Session keeps one across its instances, and the root package's
// one package-level lender lends one to every simulated party and every
// RunParty, whatever its transport, Reset when the party's run returns it.
// The agreed output is always fresh storage, never a view of the set.
type Buffers struct {
	v, vBot []byte
	seg     []byte
	block   []byte
	lanes   baplus.Buffers
	hc      highcostca.Work
}

// fresh is the set of a call given none, made out of line on the heap
// (ba.Work's fresh says why).
//
//go:noinline
func fresh() *Buffers { return new(Buffers) }

// keepValueBytes bounds what a set keeps between agreements: the buffers of
// a value longer than 1 MiB (ℓ > 2²³ bits) are dropped at Reset. A set for
// an ℓ-bit value holds about 6·ℓ/8 bytes, so a party that once agreed on a
// long value keeps at most about 6 MiB of it for the agreements after.
const keepValueBytes = 1 << 20

// Reset ends an agreement's use of b. The buffers stay for the next
// agreement unless the value they were grown for is longer than
// keepValueBytes; then the set is emptied. Either way it keeps no view of
// the agreement's inboxes (baplus.Buffers.Reset).
func (b *Buffers) Reset() {
	if cap(b.v) > keepValueBytes {
		*b = Buffers{}
	}
	b.lanes.Reset()
	b.hc.Reset()
}

// Scribble overwrites with 0xDB every byte the next agreement may rewrite:
// all the set holds. Tests call it between agreements on one set, after
// Reset, so that anything kept past its agreement reads as garbage.
func (b *Buffers) Scribble() {
	for _, p := range [][]byte{b.v, b.vBot, b.seg, b.block} {
		p = p[:cap(p)]
		for i := range p {
			p[i] = 0xDB
		}
	}
	b.lanes.Scribble()
	b.hc.Scribble()
}
