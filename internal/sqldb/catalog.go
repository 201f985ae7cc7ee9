package sqldb

import (
	"iter"
	"math/bits"
)

// The table catalog of a snapshot: a persistent (immutable, structurally
// shared) hash trie from lower-cased table name (table.key) to the
// snapshot's version of that table. set and delete copy only the path
// from the root to the affected slot — at most seven small nodes, two or
// three at realistic sizes — and share every other node with the catalog
// they were derived from, so a statement that touches one table costs
// O(log n) however many thousand tables the database holds, and any
// number of old catalogs (pinned snapshots, transaction overlays) stay
// valid without copying anything.
//
// Shape: 32-way branching on successive 5-bit digits of a 32-bit hash,
// bitmap-compressed nodes. A slot holds a table or a child node; two
// keys share a child only while their digits agree, and keys whose whole
// hash collides end in a bucket node searched linearly. The trie is kept
// canonical — a child never holds a lone table — so its shape depends
// only on the key set, not on the history of sets and deletes.

const (
	catBits     = 5
	catMask     = 1<<catBits - 1
	catHashBits = 32 // at shifts >= this a node is a collision bucket
)

type catSlot struct {
	t   *table // exactly one of t and kid is set
	kid *catNode
}

type catNode struct {
	bitmap uint32    // occupied digits; unused (0) in a bucket node
	slots  []catSlot // one per set bit, in digit order
}

type catalog struct {
	root *catNode
	n    int
}

// catHash is FNV-1a with a murmur3 finalizer: FNV's low bits mix
// poorly and the trie consumes the low bits first.
func catHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	return h ^ h>>16
}

func (c catalog) len() int { return c.n }

// get returns the table stored under key, or nil.
func (c catalog) get(key string) *table {
	h := catHash(key)
	n := c.root
	for shift := uint(0); n != nil; shift += catBits {
		i, _, ok := n.find(key, h, shift)
		if !ok {
			return nil
		}
		if s := n.slots[i]; s.kid != nil {
			n = s.kid
		} else if s.t.key == key {
			return s.t
		} else {
			return nil
		}
	}
	return nil
}

// set returns a catalog in which t replaces any table of the same key.
func (c catalog) set(t *table) catalog {
	root, added := c.root.set(t, catHash(t.key), 0)
	return catalog{root: root, n: c.n + added}
}

// catalogOf builds the catalog of tables, whose keys are distinct, in one
// pass: it owns every node while it builds, so it allocates each node
// once where len(tables) sets would copy a root-to-slot path each. The
// trie is the canonical one the same sets would have produced.
func catalogOf(tables []*table) catalog {
	ents := make([]catEnt, len(tables))
	for i, t := range tables {
		ents[i] = catEnt{catHash(t.key), t}
	}
	return catalog{root: buildCatNode(ents, make([]catEnt, len(ents)), 0), n: len(tables)}
}

type catEnt struct {
	h uint32
	t *table
}

// buildCatNode builds the node holding ents at shift; tmp is scratch of
// the same length.
func buildCatNode(ents, tmp []catEnt, shift uint) *catNode {
	if len(ents) == 0 {
		return nil
	}
	n := &catNode{}
	if shift >= catHashBits {
		n.slots = make([]catSlot, len(ents))
		for i, e := range ents {
			n.slots[i] = catSlot{t: e.t}
		}
		return n
	}
	// Counting sort by this level's digit: each digit's tables end up
	// contiguous in tmp, which the level below then uses as its input
	// (and ents as its scratch).
	var start [1<<catBits + 1]int
	for _, e := range ents {
		start[e.h>>shift&catMask+1]++
	}
	used := 0
	for d := 1; d < len(start); d++ {
		if start[d] > 0 {
			used++
		}
		start[d] += start[d-1]
	}
	next := start
	for _, e := range ents {
		d := e.h >> shift & catMask
		tmp[next[d]] = e
		next[d]++
	}
	n.slots = make([]catSlot, 0, used)
	for d := 0; d < 1<<catBits; d++ {
		lo, hi := start[d], start[d+1]
		if lo == hi {
			continue
		}
		s := catSlot{t: tmp[lo].t}
		if hi-lo > 1 {
			s = catSlot{kid: buildCatNode(tmp[lo:hi], ents[lo:hi], shift+catBits)}
		}
		n.bitmap |= 1 << d
		n.slots = append(n.slots, s)
	}
	return n
}

// delete returns a catalog without key.
func (c catalog) delete(key string) catalog {
	root, removed := c.root.delete(key, catHash(key), 0)
	if !removed {
		return c
	}
	return catalog{root: root, n: c.n - 1}
}

// all iterates every table, in no particular order.
func (c catalog) all() iter.Seq[*table] {
	return func(yield func(*table) bool) { c.root.walk(yield) }
}

func (n *catNode) walk(yield func(*table) bool) bool {
	if n == nil {
		return true
	}
	for _, s := range n.slots {
		if s.kid != nil {
			if !s.kid.walk(yield) {
				return false
			}
		} else if !yield(s.t) {
			return false
		}
	}
	return true
}

// find locates key's slot in n: the slot of its digit at shift (bit is
// that digit's bitmap bit), or, in a bucket node, the slot holding the
// key (bit is 0). When ok is false, i is where the slot would be
// inserted.
func (n *catNode) find(key string, h uint32, shift uint) (i int, bit uint32, ok bool) {
	if shift >= catHashBits {
		for i, s := range n.slots {
			if s.t.key == key {
				return i, 0, true
			}
		}
		return len(n.slots), 0, false
	}
	bit = 1 << (h >> shift & catMask)
	return bits.OnesCount32(n.bitmap & (bit - 1)), bit, n.bitmap&bit != 0
}

// splice returns a copy of n in which ins replaces del slots at i. flip
// is the digit bit entering or leaving the bitmap, 0 for a replacement.
func (n *catNode) splice(i, del int, flip uint32, ins ...catSlot) *catNode {
	m := &catNode{bitmap: n.bitmap ^ flip, slots: make([]catSlot, 0, len(n.slots)-del+len(ins))}
	m.slots = append(append(append(m.slots, n.slots[:i]...), ins...), n.slots[i+del:]...)
	return m
}

func (n *catNode) set(t *table, h uint32, shift uint) (*catNode, int) {
	if n == nil {
		n = &catNode{}
	}
	i, bit, ok := n.find(t.key, h, shift)
	if !ok {
		return n.splice(i, 0, bit, catSlot{t: t}), 1
	}
	s := n.slots[i]
	switch {
	case s.kid != nil:
		kid, added := s.kid.set(t, h, shift+catBits)
		return n.splice(i, 1, 0, catSlot{kid: kid}), added
	case s.t.key == t.key:
		return n.splice(i, 1, 0, catSlot{t: t}), 0
	}
	// Two keys share this digit: both move one level down.
	kid, _ := (*catNode)(nil).set(s.t, catHash(s.t.key), shift+catBits)
	kid, _ = kid.set(t, h, shift+catBits)
	return n.splice(i, 1, 0, catSlot{kid: kid}), 1
}

func (n *catNode) delete(key string, h uint32, shift uint) (*catNode, bool) {
	if n == nil {
		return nil, false
	}
	i, bit, ok := n.find(key, h, shift)
	if !ok {
		return n, false
	}
	s := n.slots[i]
	if s.kid != nil {
		kid, removed := s.kid.delete(key, h, shift+catBits)
		if !removed {
			return n, false
		}
		if len(kid.slots) == 1 && kid.slots[0].kid == nil {
			// Keep the trie canonical: a lone table lives in its parent.
			return n.splice(i, 1, 0, kid.slots[0]), true
		}
		return n.splice(i, 1, 0, catSlot{kid: kid}), true
	}
	if s.t.key != key {
		return n, false
	}
	if len(n.slots) == 1 {
		return nil, true
	}
	return n.splice(i, 1, bit), true
}
