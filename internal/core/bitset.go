package core

// This file holds the set primitives of the default diagnosis engine. A
// bitset is a dense bit vector over one of the engine's interned ID spaces
// (link IDs, failure-set indices, reroute-set indices): the engine keeps
// the masks it tests membership against (the diagnosis space, working
// links, candidates, unexplained sets) dense. Incidence between those
// spaces is sparse — each constraint set is one path of about ten links —
// so it is a csr table of sorted int32 rows, built by one counting-sort
// transpose.
//
// Reads (has, csr.row) tolerate out-of-range indices — a bit beyond a
// set's words is absent, a row beyond the table is empty. Writes via set
// require capacity; the engine grows through setGrow, so the primitives
// themselves stay allocation-free.

const wordBits = 64

// bitset is a packed bit vector. The zero value is an empty set.
type bitset []uint64

// newBitset returns a zeroed bitset with capacity for n bits.
func newBitset(n int) bitset { return make(bitset, (n+wordBits-1)/wordBits) }

// set sets bit i. The bit must be within the allocated words (grow first
// via setGrow when the universe is still expanding).
func (b bitset) set(i int32) { b[i>>6] |= 1 << (uint32(i) & 63) }

// clear clears bit i; clearing a bit beyond the allocated words is a no-op
// (the bit is already absent).
func (b bitset) clear(i int32) {
	if w := int(i >> 6); w < len(b) {
		b[w] &^= 1 << (uint32(i) & 63)
	}
}

// has reports whether bit i is set; bits beyond the allocated words are
// absent.
//
//ndlint:hotpath
func (b bitset) has(i int32) bool {
	w := int(i >> 6)
	return w < len(b) && b[w]&(1<<(uint32(i)&63)) != 0
}

// setGrow sets bit i, growing the word slice as needed. It is the only
// write path the engine uses while an ID space is still being interned.
func setGrow(b *bitset, i int32) {
	w := int(i >> 6)
	if w >= len(*b) {
		nb := make(bitset, w+1+w/2)
		copy(nb, *b)
		*b = nb
	}
	(*b)[w] |= 1 << (uint32(i) & 63)
}

// csr is a compressed sparse row table: row r is arena[off[r]:off[r+1]],
// ascending and duplicate-free. The zero value is a table of no rows.
type csr struct {
	off   []int32
	arena []int32
}

// row returns row r, capped so an append cannot write into the next row.
// A row beyond the table is empty.
//
//ndlint:hotpath
func (c csr) row(r int32) []int32 {
	if int(r)+1 >= len(c.off) {
		return nil
	}
	lo, hi := c.off[r], c.off[r+1]
	return c.arena[lo:hi:hi]
}

// transpose inverts rows over the columns 0..n-1: row c of the result
// lists, ascending, every index s whose rows[s] holds c — once, even when
// rows[s] repeats c. Every entry of rows must be below n. A counting sort:
// one pass counts, one fills, and the table is two allocations.
func transpose(rows [][]int32, n int) csr {
	off := make([]int32, n+1)
	// last[c] is 1 + the last row that counted c: the dedupe stamp.
	last := make([]int32, n)
	for s, r := range rows {
		for _, c := range r {
			if last[c] != int32(s)+1 {
				last[c] = int32(s) + 1
				off[c+1]++
			}
		}
	}
	for c := 0; c < n; c++ {
		off[c+1] += off[c]
	}
	arena := make([]int32, off[n])
	next := last // reused as each column's fill cursor
	copy(next, off[:n])
	for s, r := range rows {
		for _, c := range r {
			// Rows fill in ascending s, so a repeat of c within rows[s]
			// finds s as the column's last entry.
			if p := next[c]; p == off[c] || arena[p-1] != int32(s) {
				arena[p] = int32(s)
				next[c] = p + 1
			}
		}
	}
	return csr{off: off, arena: arena}
}

// intersects reports whether the ascending lists a and b share an element.
//
//ndlint:hotpath
func intersects(a, b []int32) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}
