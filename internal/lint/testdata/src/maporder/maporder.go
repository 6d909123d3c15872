// Fixture for the maporder analyzer: map iteration order reaching a
// hash or a transport send is flagged, directly or through a variable
// built inside the loop; sorted-key iteration and order-insensitive
// folds are not.
package maporder

import (
	"crypto/sha256"
	"sort"
)

type packet struct {
	to      int
	payload []byte
}

type message struct {
	from    int
	payload []byte
}

type fakeNet struct{}

func (fakeNet) Exchange(out []packet) ([]message, error) { return nil, nil }

func directSend(n fakeNet, m map[int][]byte) {
	for to, p := range m { // want `iterating m in map order reaches a transport send \(Exchange\)`
		n.Exchange([]packet{{to, p}})
	}
}

func directHash(m map[string][]byte) []byte {
	h := sha256.New()
	for _, v := range m { // want `iterating m in map order reaches hashing \(hash\.Write\)`
		h.Write(v)
	}
	return h.Sum(nil)
}

func flowsToSend(n fakeNet, m map[int][]byte) {
	var out []packet
	for to, p := range m { // want `out is built by iterating m in map order and then passed to a transport send \(Exchange\)`
		out = append(out, packet{to, p})
	}
	n.Exchange(out)
}

func sortedKeysAreFine(n fakeNet, m map[int][]byte) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]packet, 0, len(keys))
	for _, k := range keys {
		out = append(out, packet{k, m[k]})
	}
	n.Exchange(out)
}

func sortedSliceIsFine(n fakeNet, m map[int][]byte) {
	var out []packet
	for to, p := range m {
		out = append(out, packet{to, p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].to < out[j].to })
	n.Exchange(out)
}

func foldIsFine(m map[int][]byte) int {
	total := 0
	for _, p := range m {
		total += len(p)
	}
	return total
}

func suppressed(n fakeNet, m map[int][]byte) {
	//calint:ignore maporder byzantine strategy that deliberately randomizes order
	for to, p := range m {
		n.Exchange([]packet{{to, p}})
	}
}

// The shapes of the one product bug on record (sessmux's tick once merged
// its sessions in map order): the exchange is a call away, behind a
// helper that takes the session list, so the list itself is what must
// not leave the loop unsorted.

type mux struct {
	n    fakeNet
	open map[uint64][]byte
	sids []uint64
}

// merge ranges over the list it is given and exchanges what it builds:
// its parameter's element order reaches the wire.
func (m *mux) merge(sids []uint64) {
	var out []packet
	for _, sid := range sids {
		out = append(out, packet{int(sid), m.open[sid]})
	}
	m.n.Exchange(out)
}

func (m *mux) flushUnsorted() {
	var sids []uint64
	for sid := range m.open { // want `sids is built by iterating m\.open in map order and then passed to .*merge, whose parameter reaches a transport send \(Exchange\)`
		sids = append(sids, sid)
	}
	m.merge(sids)
}

func (m *mux) flushSorted() {
	var sids []uint64
	for sid := range m.open {
		sids = append(sids, sid)
	}
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	m.merge(sids)
}

// pended is the same loop moved into a helper: the slice it returns is
// in map order and its caller cannot tell.
func (m *mux) pended() []uint64 {
	var sids []uint64
	for sid := range m.open { // want `sids is built by iterating m\.open in map order and then returned unsorted`
		sids = append(sids, sid)
	}
	return sids
}

func (m *mux) stash() {
	var sids []uint64
	for sid := range m.open { // want `sids is built by iterating m\.open in map order and then stored unsorted in m\.sids`
		sids = append(sids, sid)
	}
	m.sids = sids
}

// derived: a loop over the unsorted keys taints what it builds in turn.
func (m *mux) derived() {
	var sids []uint64
	for sid := range m.open { // want `out is built by iterating m\.open in map order and then passed to a transport send \(Exchange\)`
		sids = append(sids, sid)
	}
	var out []packet
	for _, sid := range sids {
		out = append(out, packet{int(sid), m.open[sid]})
	}
	m.n.Exchange(out)
}

// count hands the unsorted list to a function that only folds it; no
// byte depends on the order, so nothing is flagged.
func count(sids []uint64) int {
	total := 0
	for _, sid := range sids {
		total += int(sid)
	}
	return total
}

func (m *mux) foldElsewhere() int {
	var sids []uint64
	for sid := range m.open {
		sids = append(sids, sid)
	}
	return count(sids)
}
