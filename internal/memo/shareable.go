package memo

import "math/bits"

// Shareable returns the equivalence nodes worth considering for
// materialization: groups consumable from at least two distinct contexts
// (different queries, different blocks of one query, or via subsumption
// derivations), excluding unfiltered base-relation scans (materializing a
// verbatim copy of a stored table can never reduce cost). Restricting the
// search to shareable nodes is the first optimization of Section 5.1,
// carried over from Roy et al.
func (m *Memo) Shareable() []GroupID {
	var out []GroupID
	for _, g := range m.groups {
		if g.Consumers.Len() < 2 {
			continue
		}
		if g.Leaf && !g.BasePred {
			continue
		}
		out = append(out, g.ID) // groups are in id order, so out is ascending
	}
	return out
}

// Bitset is a fixed-width bitset over the dense slots of a ShareIndex: bit
// i corresponds to the i-th shareable group in GroupID order. It is the
// uniform materialization-set representation of the oracle hot path — a
// short/nil Bitset is valid and reads as all-zero, so the zero value is
// the empty set.
type Bitset []uint64

// HasSlot reports whether slot i is set.
func (b Bitset) HasSlot(i int) bool {
	w := i / 64
	return w < len(b) && b[w]&(1<<uint(i%64)) != 0
}

// SetSlot sets slot i; the bitset must be wide enough.
func (b Bitset) SetSlot(i int) { b[i/64] |= 1 << uint(i%64) }

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy of the bitset.
func (b Bitset) Clone() Bitset {
	out := make(Bitset, len(b))
	copy(out, b)
	return out
}

// bitset helpers for the incremental bestCost cache: every group knows
// which shareable nodes are reachable below it (including itself), so a
// cost computed for (group, order) can be reused across bestCost calls
// whenever the materialization set restricted to those nodes is unchanged.

// ShareIndex maps shareable group ids to dense bit positions and every
// group to the shareable nodes at or below it. Both are arrays indexed by
// GroupID, filled once by NewShareIndex; the oracle hot path reads them in
// place.
type ShareIndex struct {
	slot  []int32   // group id -> slot, -1 when the group is not shareable
	ids   []GroupID // slot -> group id
	words int
	desc  []Bitset // group id -> shareable nodes reachable at or below it
}

// NewShareIndex builds the index for the memo's shareable set.
func (m *Memo) NewShareIndex() *ShareIndex {
	n := len(m.groups)
	si := &ShareIndex{slot: make([]int32, n), ids: m.Shareable(), desc: make([]Bitset, n)}
	si.words = max(1, (len(si.ids)+63)/64)
	for i := range si.slot {
		si.slot[i] = -1
	}
	for i, id := range si.ids {
		si.slot[id] = int32(i)
	}
	// A subsumption edge can point at a group created later, so id order is
	// not a topological order: fill depth-first (the DAG is acyclic), a
	// non-nil entry marking a group as done.
	words := make([]uint64, n*si.words) // one backing array
	var fill func(id GroupID) Bitset
	fill = func(id GroupID) Bitset {
		if si.desc[id] != nil {
			return si.desc[id]
		}
		lo, hi := int(id)*si.words, (int(id)+1)*si.words
		bs := Bitset(words[lo:hi:hi])
		si.desc[id] = bs
		if p := si.slot[id]; p >= 0 {
			bs.SetSlot(int(p))
		}
		for _, e := range m.groups[id].Exprs {
			for _, c := range e.Children {
				for w, v := range fill(c) {
					bs[w] |= v
				}
			}
		}
		return bs
	}
	for i := range si.desc {
		fill(GroupID(i))
	}
	return si
}

// Pos returns the bit position of a shareable group, or -1.
func (si *ShareIndex) Pos(id GroupID) int {
	if uint(id) >= uint(len(si.slot)) {
		return -1
	}
	return int(si.slot[id])
}

// GroupAt returns the group id occupying a slot.
func (si *ShareIndex) GroupAt(slot int) GroupID { return si.ids[slot] }

// Len returns the number of shareable nodes.
func (si *ShareIndex) Len() int { return len(si.ids) }

// Groups returns the group ids of the set slots, in ascending id order.
func (si *ShareIndex) Groups(mat Bitset) []GroupID {
	var out []GroupID
	for w, v := range mat {
		for v != 0 {
			b := bits.TrailingZeros64(v)
			out = append(out, si.ids[w*64+b])
			v &= v - 1
		}
	}
	return out
}

// Descendants returns the bitset of shareable nodes reachable at or below
// the group (shared storage, do not mutate).
func (si *ShareIndex) Descendants(id GroupID) Bitset { return si.desc[id] }

// HashMasked hashes the intersection of a materialization bitset with a
// group's shareable descendants (FNV-1a over the masked words): the
// Section 5.1 cache mask.
func HashMasked(desc, mat Bitset) uint64 {
	var h uint64 = 1469598103934665603
	for w := range desc {
		var mw uint64
		if w < len(mat) {
			mw = mat[w]
		}
		v := desc[w] & mw
		for i := 0; i < 8; i++ {
			h ^= (v >> uint(8*i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// NewMatSet returns an empty materialization bitset sized for this index.
func (si *ShareIndex) NewMatSet() Bitset { return make(Bitset, si.words) }

// Set marks a shareable group in the bitset; it reports whether the group
// was shareable.
func (si *ShareIndex) Set(mat Bitset, id GroupID) bool {
	p := si.Pos(id)
	if p < 0 {
		return false
	}
	mat.SetSlot(p)
	return true
}

// Has reports whether the group's bit is set.
func (si *ShareIndex) Has(mat Bitset, id GroupID) bool {
	p := si.Pos(id)
	return p >= 0 && mat.HasSlot(p)
}
