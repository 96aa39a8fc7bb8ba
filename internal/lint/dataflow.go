package lint

import (
	"go/token"
	"sort"
)

// This file is the solver half of the dataflow lint framework: a
// classic iterative worklist fixpoint over the CFG of cfg.go. An
// analysis states its problem as a Lattice (the fact domain and its
// join), a boundary fact and a transfer function; Solve propagates facts
// forward, along control flow from Entry, and returns the fact at every
// block boundary. The lattices the shipped analyzers use are
// finite (sets of lock keys, sets of live span variables), so the
// ascending-chain condition holds and the fixpoint terminates.

// Fact is one analysis's dataflow fact. Implementations must treat
// returned facts as immutable: transfer and join produce new values
// rather than mutating their inputs, so facts can be shared between
// blocks.
type Fact any

// Lattice defines the fact domain of one dataflow problem.
type Lattice interface {
	// Bottom is the initial fact of every block boundary.
	Bottom() Fact
	// Join combines the facts of two converging paths.
	Join(a, b Fact) Fact
	// Equal reports whether two facts are the same (the fixpoint test).
	Equal(a, b Fact) bool
}

// Problem is one forward dataflow analysis over a CFG.
type Problem struct {
	Lattice Lattice
	// Boundary is the fact entering the graph at Entry. Nil means
	// Lattice.Bottom().
	Boundary Fact
	// Transfer computes the fact leaving a block from the fact entering
	// it, in execution order.
	Transfer func(b *Block, in Fact) Fact
}

// Solution holds the per-block boundary facts of a solved problem: In is
// the fact before the block and Out the fact after it.
type Solution struct {
	In  map[*Block]Fact
	Out map[*Block]Fact
}

// Solve runs the worklist fixpoint and returns the boundary facts. The
// worklist is ordered by block index, so the iteration sequence — and
// therefore any diagnostic an analyzer derives while re-walking blocks —
// is deterministic.
func (c *CFG) Solve(p Problem) *Solution {
	sol := &Solution{In: map[*Block]Fact{}, Out: map[*Block]Fact{}}
	for _, b := range c.Blocks {
		sol.In[b] = p.Lattice.Bottom()
		sol.Out[b] = p.Transfer(b, sol.In[b])
	}
	preds := map[*Block][]*Block{}
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}

	boundary := p.Boundary
	if boundary == nil {
		boundary = p.Lattice.Bottom()
	}
	sol.In[c.Entry] = boundary
	sol.Out[c.Entry] = p.Transfer(c.Entry, boundary)

	work := newWorklist(c.Blocks)
	for {
		b, ok := work.pop()
		if !ok {
			return sol
		}
		in := p.Lattice.Bottom()
		if b == c.Entry {
			in = boundary
		}
		for _, f := range preds[b] {
			in = p.Lattice.Join(in, sol.Out[f])
		}
		out := p.Transfer(b, in)
		sol.In[b] = in
		if p.Lattice.Equal(out, sol.Out[b]) {
			continue
		}
		sol.Out[b] = out
		for _, s := range b.Succs {
			work.push(s)
		}
	}
}

// worklist is an index-ordered block queue: pop always returns the
// lowest-index pending block, which keeps fixpoint iteration (and any
// order-sensitive diagnostics) deterministic regardless of how edges
// were wired.
type worklist struct {
	pending map[int]*Block
	order   []int
}

func newWorklist(blocks []*Block) *worklist {
	w := &worklist{pending: map[int]*Block{}}
	for _, b := range blocks {
		w.pending[b.Index] = b
		w.order = append(w.order, b.Index)
	}
	sort.Ints(w.order)
	return w
}

func (w *worklist) push(b *Block) {
	if _, ok := w.pending[b.Index]; ok {
		return
	}
	w.pending[b.Index] = b
	// Insert in sorted position; worklists are small (blocks per
	// function), so a linear scan beats maintaining a heap.
	i := sort.SearchInts(w.order, b.Index)
	w.order = append(w.order, 0)
	copy(w.order[i+1:], w.order[i:])
	w.order[i] = b.Index
}

func (w *worklist) pop() (*Block, bool) {
	if len(w.order) == 0 {
		return nil, false
	}
	idx := w.order[0]
	w.order = w.order[1:]
	b := w.pending[idx]
	delete(w.pending, idx)
	return b, true
}

// posSet is the shared fact shape of the resource-balance analyzers: a
// set of live resources (held locks, un-ended spans) keyed by a
// canonical string, each carrying the position that created it so
// reports point at the acquisition site. posSet values are immutable
// once published to the solver.
type posSet map[string]token.Pos

// posSetLattice joins by union, keeping the earliest position per key so
// merged facts stay deterministic.
type posSetLattice struct{}

func (posSetLattice) Bottom() Fact { return posSet(nil) }

func (posSetLattice) Join(a, b Fact) Fact {
	x, y := a.(posSet), b.(posSet)
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	out := make(posSet, len(x)+len(y))
	for k, p := range x {
		out[k] = p
	}
	for k, p := range y {
		if q, ok := out[k]; !ok || p < q {
			out[k] = p
		}
	}
	return out
}

func (posSetLattice) Equal(a, b Fact) bool {
	x, y := a.(posSet), b.(posSet)
	if len(x) != len(y) {
		return false
	}
	for k, p := range x {
		if q, ok := y[k]; !ok || p != q {
			return false
		}
	}
	return true
}

// with returns a copy of s with k set to pos.
func (s posSet) with(k string, pos token.Pos) posSet {
	out := make(posSet, len(s)+1)
	for key, p := range s {
		out[key] = p
	}
	out[k] = pos
	return out
}

// without returns a copy of s with k removed (or s itself when absent).
func (s posSet) without(k string) posSet {
	if _, ok := s[k]; !ok {
		return s
	}
	out := make(posSet, len(s))
	for key, p := range s {
		if key != k {
			out[key] = p
		}
	}
	return out
}

// sortedKeys returns the set's keys in deterministic order.
func (s posSet) sortedKeys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
