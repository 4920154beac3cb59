package rdf

import "math/bits"

// This file implements the persistent (structurally shared) containers
// the copy-on-write graph states are built from: a bitmap-compressed
// radix trie keyed by uint32 dictionary IDs — the classic
// hash-array-mapped-trie layout, except IDs are dense and uncorrelated
// enough that the key bits are used directly, no hashing. A mutation
// returns a root that shares all untouched nodes with the old one, so
// a published graph state is frozen forever. A write transaction
// copies a published node the first time it touches it and edits its
// own copies in place afterwards (transient edits, below), so a bulk
// load pays for each node once rather than a root-to-leaf path per
// triple.
//
// Layout: each node consumes 5 key bits per level (low bits first, so
// dense IDs spread across children immediately); a set bitmap bit marks
// a populated child slot, and slots are packed in bit order. A slot is
// either a leaf (key + value) or an edge to a deeper node. Two keys
// sharing a 5-bit chunk split lazily, so tries over sparse key sets
// stay shallow. Depth is bounded by ceil(32/5) = 7.

const (
	pmBits = 5
	pmMask = 1<<pmBits - 1
	// pmMaxDepth bounds the iterator stack: 7 chunk levels plus one
	// guard frame.
	pmMaxDepth = 8
)

// pmSlot is one populated position of a node: a leaf when child is
// nil, an edge otherwise.
type pmSlot[V any] struct {
	child *pmNode[V]
	key   uint32
	val   V
}

// pmNode is a trie node. A nil *pmNode is the empty trie. edit is the
// stamp of the write transaction that allocated the node (0 = none);
// see "Transient edits" below.
type pmNode[V any] struct {
	bitmap uint32
	edit   uint32
	slots  []pmSlot[V]
}

// Transient edits. Every write runs under an edit stamp e, a nonzero
// value that is fresh for each write transaction (Graph.nextEdit). A
// node, set or map whose edit field equals e was allocated by the
// running transaction and is reachable from nothing but its private
// state, so the transaction mutates it in place; anything else may be
// shared with a published state and is copied first (the copy carries
// e). An owned node's parent is always owned too — the only way to
// link a node into the transaction's trie is to rewrite its parent —
// so "the child came back as the same pointer" means nothing above it
// has to change. Published nodes are never written: once a
// transaction commits, its stamp is retired and no later writer holds
// it. Owned slot slices are sized exactly on growth, so a transient
// trie occupies what the persistent one would.

// pmOwn returns n itself when the transaction stamped e owns it, else
// a private copy stamped e.
func pmOwn[V any](n *pmNode[V], e uint32) *pmNode[V] {
	if n.edit == e {
		return n
	}
	slots := make([]pmSlot[V], len(n.slots))
	copy(slots, n.slots)
	return &pmNode[V]{bitmap: n.bitmap, edit: e, slots: slots}
}

// pmGet returns the value stored under key.
func pmGet[V any](n *pmNode[V], key uint32) (V, bool) {
	shift := uint(0)
	for n != nil {
		bit := uint32(1) << ((key >> shift) & pmMask)
		if n.bitmap&bit == 0 {
			break
		}
		sl := &n.slots[bits.OnesCount32(n.bitmap&(bit-1))]
		if sl.child == nil {
			if sl.key == key {
				return sl.val, true
			}
			break
		}
		n = sl.child
		shift += pmBits
	}
	var zero V
	return zero, false
}

// pmSet binds key to v under edit stamp e, returning the trie's root
// (n itself when n was owned and edited in place); the bool reports
// whether the key was absent before (an insert rather than a replace).
func pmSet[V any](n *pmNode[V], shift uint, key uint32, v V, e uint32) (*pmNode[V], bool) {
	if n == nil {
		idx := (key >> shift) & pmMask
		return &pmNode[V]{bitmap: 1 << idx, edit: e, slots: []pmSlot[V]{{key: key, val: v}}}, true
	}
	bit := uint32(1) << ((key >> shift) & pmMask)
	pos := bits.OnesCount32(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		return pmInsert(n, bit, pos, pmSlot[V]{key: key, val: v}, e), true
	}
	sl := &n.slots[pos]
	switch {
	case sl.child != nil:
		child, added := pmSet(sl.child, shift+pmBits, key, v, e)
		if child == sl.child {
			return n, added
		}
		n = pmOwn(n, e)
		n.slots[pos].child = child
		return n, added
	case sl.key == key:
		n = pmOwn(n, e)
		n.slots[pos].val = v
		return n, false
	default:
		child := pmSplit(sl.key, sl.val, key, v, shift+pmBits, e)
		n = pmOwn(n, e)
		n.slots[pos] = pmSlot[V]{child: child}
		return n, true
	}
}

// pmInsert adds slot s at pos (bitmap bit) to n, in place when owned.
func pmInsert[V any](n *pmNode[V], bit uint32, pos int, s pmSlot[V], e uint32) *pmNode[V] {
	slots := make([]pmSlot[V], len(n.slots)+1)
	copy(slots, n.slots[:pos])
	slots[pos] = s
	copy(slots[pos+1:], n.slots[pos:])
	if n.edit == e {
		n.slots = slots
		n.bitmap |= bit
		return n
	}
	return &pmNode[V]{bitmap: n.bitmap | bit, edit: e, slots: slots}
}

// pmSplit builds the subtree holding two distinct keys that collided
// at the parent level. Distinct uint32 keys differ in some chunk, so
// the recursion terminates.
func pmSplit[V any](k1 uint32, v1 V, k2 uint32, v2 V, shift uint, e uint32) *pmNode[V] {
	i1 := (k1 >> shift) & pmMask
	i2 := (k2 >> shift) & pmMask
	if i1 == i2 {
		child := pmSplit(k1, v1, k2, v2, shift+pmBits, e)
		return &pmNode[V]{bitmap: 1 << i1, edit: e, slots: []pmSlot[V]{{child: child}}}
	}
	n := &pmNode[V]{bitmap: 1<<i1 | 1<<i2, edit: e}
	if i1 < i2 {
		n.slots = []pmSlot[V]{{key: k1, val: v1}, {key: k2, val: v2}}
	} else {
		n.slots = []pmSlot[V]{{key: k2, val: v2}, {key: k1, val: v1}}
	}
	return n
}

// pmDel removes key under edit stamp e; the bool reports whether the
// key was present. Nodes left with a single leaf are collapsed into
// their parent slot, keeping lookup paths short after churn.
func pmDel[V any](n *pmNode[V], shift uint, key uint32, e uint32) (*pmNode[V], bool) {
	if n == nil {
		return nil, false
	}
	bit := uint32(1) << ((key >> shift) & pmMask)
	if n.bitmap&bit == 0 {
		return n, false
	}
	pos := bits.OnesCount32(n.bitmap & (bit - 1))
	sl := &n.slots[pos]
	if sl.child == nil {
		if sl.key != key {
			return n, false
		}
		return pmWithout(n, bit, pos, e), true
	}
	child, removed := pmDel(sl.child, shift+pmBits, key, e)
	switch {
	case !removed:
		return n, false
	case child == nil:
		return pmWithout(n, bit, pos, e), true
	case len(child.slots) == 1 && child.slots[0].child == nil:
		leaf := child.slots[0]
		n = pmOwn(n, e)
		n.slots[pos] = leaf
	case child != sl.child:
		n = pmOwn(n, e)
		n.slots[pos].child = child
	}
	return n, true
}

// pmWithout removes the slot at pos (bitmap bit) from n — in place
// when owned, from a copy otherwise — returning nil when it was the
// last one.
func pmWithout[V any](n *pmNode[V], bit uint32, pos int, e uint32) *pmNode[V] {
	if len(n.slots) == 1 {
		return nil
	}
	if n.edit == e {
		last := len(n.slots) - 1
		copy(n.slots[pos:], n.slots[pos+1:])
		n.slots[last] = pmSlot[V]{}
		n.slots = n.slots[:last]
		n.bitmap &^= bit
		return n
	}
	slots := make([]pmSlot[V], len(n.slots)-1)
	copy(slots, n.slots[:pos])
	copy(slots[pos:], n.slots[pos+1:])
	return &pmNode[V]{bitmap: n.bitmap &^ bit, edit: e, slots: slots}
}

// pmClearEdits resets the edit stamp of every node of a trie to 0,
// calling inner on each leaf value; see Graph.nextEdit.
func pmClearEdits[V any](n *pmNode[V], inner func(V)) {
	if n == nil {
		return
	}
	n.edit = 0
	for i := range n.slots {
		if sl := &n.slots[i]; sl.child != nil {
			pmClearEdits(sl.child, inner)
		} else if inner != nil {
			inner(sl.val)
		}
	}
}

// pmIter is an explicit-stack in-order cursor over a trie. It lives on
// the caller's stack (fixed-depth frame array, no allocation), which
// is what keeps the bound-probe and early-termination enumeration
// paths allocation-free.
type pmIter[V any] struct {
	stack [pmMaxDepth]pmIterState[V]
	depth int
}

// pmIterState is one stack frame: a node and the next slot to visit.
type pmIterState[V any] struct {
	n *pmNode[V]
	i int
}

func (it *pmIter[V]) init(n *pmNode[V]) {
	it.depth = 0
	if n != nil {
		it.stack[0] = pmIterState[V]{n: n}
		it.depth = 1
	}
}

// next yields the following (key, value) leaf, or ok=false at the end.
func (it *pmIter[V]) next() (uint32, V, bool) {
	for it.depth > 0 {
		fr := &it.stack[it.depth-1]
		if fr.i >= len(fr.n.slots) {
			it.depth--
			continue
		}
		sl := &fr.n.slots[fr.i]
		fr.i++
		if sl.child != nil {
			it.stack[it.depth] = pmIterState[V]{n: sl.child}
			it.depth++
			continue
		}
		return sl.key, sl.val, true
	}
	var zero V
	return 0, zero, false
}

// pset is a set of IDs: the innermost index level. A nil *pset is
// empty. edit is the owning transaction's stamp (see pmNode).
type pset struct {
	root *pmNode[struct{}]
	n    int32
	edit uint32
}

func (s *pset) len() int {
	if s == nil {
		return 0
	}
	return int(s.n)
}

func (s *pset) has(id ID) bool {
	if s == nil {
		return false
	}
	_, ok := pmGet(s.root, uint32(id))
	return ok
}

// own returns s when owned by e, else a private copy stamped e.
func (s *pset) own(e uint32) *pset {
	switch {
	case s == nil:
		return &pset{edit: e}
	case s.edit != e:
		return &pset{root: s.root, n: s.n, edit: e}
	}
	return s
}

// with returns the set including id, which must be absent (s itself
// when owned by e and edited in place).
func (s *pset) with(id ID, e uint32) *pset {
	s = s.own(e)
	s.root, _ = pmSet(s.root, 0, uint32(id), struct{}{}, e)
	s.n++
	return s
}

// without returns the set excluding id, which must be present (nil
// when the set becomes empty).
func (s *pset) without(id ID, e uint32) *pset {
	if s.n == 1 {
		return nil
	}
	s = s.own(e)
	s.root, _ = pmDel(s.root, 0, uint32(id), e)
	s.n--
	return s
}

// pmid is a map from ID to *pset — the middle index level — carrying
// the subtree's triple total so single-bound cardinality probes stay
// O(lookup). A nil *pmid is empty. edit is the owning transaction's
// stamp (see pmNode).
type pmid struct {
	root  *pmNode[*pset]
	n     int32 // distinct keys
	edit  uint32
	total int // triples in all sets
}

func (m *pmid) keys() int {
	if m == nil {
		return 0
	}
	return int(m.n)
}

func (m *pmid) triples() int {
	if m == nil {
		return 0
	}
	return m.total
}

func (m *pmid) get(k ID) *pset {
	if m == nil {
		return nil
	}
	s, _ := pmGet(m.root, uint32(k))
	return s
}

// own returns m when owned by e, else a private copy stamped e.
func (m *pmid) own(e uint32) *pmid {
	switch {
	case m == nil:
		return &pmid{edit: e}
	case m.edit != e:
		c := *m
		c.edit = e
		return &c
	}
	return m
}

// withAdd returns the map with the absent pair (k, v) added.
func (m *pmid) withAdd(k, v ID, e uint32) *pmid {
	set := m.get(k)
	nset := set.with(v, e)
	m = m.own(e)
	if nset != set {
		var isNew bool
		m.root, isNew = pmSet(m.root, 0, uint32(k), nset, e)
		if isNew {
			m.n++
		}
	}
	m.total++
	return m
}

// withDel returns the map with the present pair (k, v) removed (nil
// when the map becomes empty).
func (m *pmid) withDel(k, v ID, e uint32) *pmid {
	set := m.get(k)
	nset := set.without(v, e)
	if nset == nil && m.n == 1 {
		return nil
	}
	m = m.own(e)
	switch {
	case nset == nil:
		m.root, _ = pmDel(m.root, 0, uint32(k), e)
		m.n--
	case nset != set:
		m.root, _ = pmSet(m.root, 0, uint32(k), nset, e)
	}
	m.total--
	return m
}

// clearEdits resets the stamps of m and everything below it.
func (m *pmid) clearEdits() {
	m.edit = 0
	pmClearEdits(m.root, func(s *pset) {
		s.edit = 0
		pmClearEdits(s.root, nil)
	})
}

// idxGet resolves the middle level of a three-level index.
func idxGet(root *pmNode[*pmid], a ID) *pmid {
	if root == nil {
		return nil
	}
	m, _ := pmGet(root, uint32(a))
	return m
}

// idxAdd inserts the absent triple (a → b → c) into a three-level
// index.
func idxAdd(root *pmNode[*pmid], a, b, c ID, e uint32) *pmNode[*pmid] {
	mid := idxGet(root, a)
	if nmid := mid.withAdd(b, c, e); nmid != mid {
		root, _ = pmSet(root, 0, uint32(a), nmid, e)
	}
	return root
}

// idxDel removes the present triple (a → b → c) from a three-level
// index.
func idxDel(root *pmNode[*pmid], a, b, c ID, e uint32) *pmNode[*pmid] {
	mid := idxGet(root, a)
	switch nmid := mid.withDel(b, c, e); {
	case nmid == nil:
		root, _ = pmDel(root, 0, uint32(a), e)
	case nmid != mid:
		root, _ = pmSet(root, 0, uint32(a), nmid, e)
	}
	return root
}

// idxClearEdits resets the stamps of a whole three-level index.
func idxClearEdits(root *pmNode[*pmid]) {
	pmClearEdits(root, (*pmid).clearEdits)
}
