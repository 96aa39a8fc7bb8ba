package lint

import (
	"go/token"
	"sort"
)

// This file is the solver half of the dataflow lint framework: a
// classic iterative worklist fixpoint over the CFG of cfg.go. An
// analysis states its problem as a boundary fact and a transfer function
// over posSet facts; Solve propagates facts forward, along control flow
// from Entry, joins converging paths by union and returns the fact at
// every block boundary. The sets are finite (lock keys, live span
// variables), so the ascending-chain condition holds and the fixpoint
// terminates.

// Problem is one forward dataflow analysis over a CFG.
type Problem struct {
	// Boundary is the fact entering the graph at Entry; nil is the empty
	// set, every other block boundary's initial fact.
	Boundary posSet
	// Transfer computes the fact leaving a block from the fact entering
	// it, in execution order. Facts are shared between blocks, so it
	// returns a new set rather than mutating in.
	Transfer func(b *Block, in posSet) posSet
}

// Solution holds the per-block boundary facts of a solved problem: In is
// the fact before the block and Out the fact after it.
type Solution struct {
	In  map[*Block]posSet
	Out map[*Block]posSet
}

// Solve runs the worklist fixpoint and returns the boundary facts. The
// worklist is ordered by block index, so the iteration sequence — and
// therefore any diagnostic an analyzer derives while re-walking blocks —
// is deterministic.
func (c *CFG) Solve(p Problem) *Solution {
	sol := &Solution{In: map[*Block]posSet{}, Out: map[*Block]posSet{}}
	for _, b := range c.Blocks {
		sol.In[b] = nil
		sol.Out[b] = p.Transfer(b, nil)
	}
	preds := map[*Block][]*Block{}
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}

	sol.In[c.Entry] = p.Boundary
	sol.Out[c.Entry] = p.Transfer(c.Entry, p.Boundary)

	work := newWorklist(c.Blocks)
	for {
		b, ok := work.pop()
		if !ok {
			return sol
		}
		var in posSet
		if b == c.Entry {
			in = p.Boundary
		}
		for _, f := range preds[b] {
			in = in.join(sol.Out[f])
		}
		out := p.Transfer(b, in)
		sol.In[b] = in
		if out.equal(sol.Out[b]) {
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

// join is the union of two facts, keeping the earliest position per key
// so merged facts stay deterministic.
func (s posSet) join(o posSet) posSet {
	if len(s) == 0 {
		return o
	}
	if len(o) == 0 {
		return s
	}
	out := make(posSet, len(s)+len(o))
	for k, p := range s {
		out[k] = p
	}
	for k, p := range o {
		if q, ok := out[k]; !ok || p < q {
			out[k] = p
		}
	}
	return out
}

// equal reports whether two facts hold the same keys at the same
// positions: the fixpoint test.
func (s posSet) equal(o posSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k, p := range s {
		if q, ok := o[k]; !ok || p != q {
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
