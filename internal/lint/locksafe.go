package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockSafe encodes the concurrency contract that keeps the serving
// layer's shared state race-free: a sync.Mutex/RWMutex acquired in a
// function is released on every path out of it (the defer idiom counts
// the moment it executes), a lock is never re-acquired while already
// held (self-deadlock), and critical sections stay small — no admission-
// queue submit (TrySubmit), no HTTP round trip, no potentially-blocking
// channel operation, and no call through a func-typed value (unknown
// code) while a lock is held. Channel operations inside a select with a
// default clause are non-blocking and exempt. Per package, the analyzer
// also derives lock-order facts — which lock types were held while
// acquiring which — and reports a cycle (A held while taking B, and B
// held while taking A elsewhere) as a potential deadlock.
//
// The analysis is flow-sensitive: each function body is lowered to a
// CFG (cfg.go) and a forward held-set fact is solved to fixpoint
// (dataflow.go), so early returns, loops, labeled breaks and panic
// edges are all real paths that must release.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "every Lock has an Unlock on all paths out; no queue submit, HTTP round trip, channel op or indirect call while a lock is held",
	Run:  runLockSafe,
}

// lockOrderFact is one "held A while acquiring B" observation.
type lockOrderFact struct {
	held, acquired string
	pos            token.Pos
}

func runLockSafe(p *Pass) {
	var order []lockOrderFact
	funcBodies(p, func(sig *types.Signature, body *ast.BlockStmt) {
		order = append(order, lockSafeFunc(p, body)...)
	})
	reportLockOrderCycles(p, order)
}

// lockSafeFunc analyzes one function body and returns the lock-order
// facts it observed.
//
// Two dataflow problems over the same CFG, differing only in how they
// treat deferred code:
//
//   - The balance fact drives the release-on-all-paths check. A
//     deferred unlock (`defer mu.Unlock()` or `defer func() {
//     mu.Unlock() }()`) releases on every path that passes its program
//     point, so it kills the fact right there. What survives to Exit is
//     an acquire some path never releases.
//   - The held fact drives the while-held checks (banned operations,
//     double-acquire, lock-order). A deferred unlock runs at function
//     exit, so it must NOT kill: the lock is held for the rest of the
//     body. Deferred subtrees and nested closures are skipped entirely
//     in this mode (they don't execute at their program point).
//
// Using the balance fact for while-held checks would blind them in
// exactly the defer-idiom functions the repo prefers.
func lockSafeFunc(p *Pass, body *ast.BlockStmt) []lockOrderFact {
	cfg := buildCFG(body, p.Info)
	// exemptChanOps are channel operations inside a select that has a
	// default clause: they never block.
	exemptChanOps := nonBlockingChanOps(body)
	// typeKeys lifts each acquire site's per-function key to the
	// type-level key lock-order facts compare across functions.
	typeKeys := map[string]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if key, kind := lockOp(p.Info, call); kind == lockAcquire {
				typeKeys[key] = lockTypeKeyOf(p.Info, call)
			}
		}
		return true
	})

	balanceWalk := func(n ast.Node, visit func(ast.Node)) {
		ast.Inspect(n, func(sub ast.Node) bool {
			if sub == nil {
				return false
			}
			if d, ok := sub.(*ast.DeferStmt); ok {
				// Visit the deferred call so `defer mu.Unlock()` kills;
				// a directly deferred closure's unlocks count too.
				if fl, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
					visit(d.Call)
					ast.Inspect(fl.Body, func(m ast.Node) bool {
						if _, kind := lockOp(p.Info, m); kind == lockRelease {
							visit(m)
						}
						_, isLit := m.(*ast.FuncLit)
						return !isLit
					})
					return false
				}
				return true
			}
			// Closures not directly deferred are opaque: they run at an
			// unknown time (or re-lock for their own critical section,
			// like a flight's cleanup), so their lock ops are theirs.
			if _, isLit := sub.(*ast.FuncLit); isLit {
				return false
			}
			visit(sub)
			return true
		})
	}
	heldWalk := func(n ast.Node, visit func(ast.Node)) {
		ast.Inspect(n, func(sub ast.Node) bool {
			if sub == nil {
				return false
			}
			switch sub.(type) {
			case *ast.DeferStmt, *ast.FuncLit:
				return false
			}
			visit(sub)
			return true
		})
	}

	apply := func(b *Block, in posSet, walk func(ast.Node, func(ast.Node)), visit func(sub ast.Node, fact posSet) posSet) posSet {
		fact := in
		for _, n := range b.Nodes {
			walk(n, func(sub ast.Node) {
				fact = visit(sub, fact)
			})
		}
		return fact
	}
	lockTransfer := func(sub ast.Node, fact posSet) posSet {
		switch key, kind := lockOp(p.Info, sub); kind {
		case lockAcquire:
			return fact.with(key, sub.Pos())
		case lockRelease:
			return fact.without(key)
		}
		return fact
	}

	balanceSol := cfg.Solve(Problem{
		Transfer: func(b *Block, in posSet) posSet {
			return apply(b, in, balanceWalk, lockTransfer)
		},
	})
	heldSol := cfg.Solve(Problem{
		Transfer: func(b *Block, in posSet) posSet {
			return apply(b, in, heldWalk, lockTransfer)
		},
	})

	// Reporting pass over the held facts: re-walk each block from its
	// solved in-fact so every node sees the exact held set on its path.
	var order []lockOrderFact
	type rep struct {
		pos token.Pos
		msg string
	}
	seen := map[rep]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if p.InTestFile(pos) {
			return
		}
		r := rep{pos, fmt.Sprintf(format, args...)}
		if !seen[r] {
			seen[r] = true
			p.Reportf(pos, "%s", r.msg)
		}
	}
	for _, b := range cfg.Blocks {
		apply(b, heldSol.In[b], heldWalk, func(sub ast.Node, fact posSet) posSet {
			if len(fact) > 0 {
				if msg := bannedUnderLock(p.Info, sub, exemptChanOps); msg != "" {
					report(sub.Pos(), "%s while holding %s; move it outside the critical section",
						msg, lockKeyNames(fact.sortedKeys()))
				}
			}
			if key, kind := lockOp(p.Info, sub); kind == lockAcquire {
				if _, already := fact[key]; already {
					report(sub.Pos(), "%s acquired while already held (self-deadlock)", lockKeyName(key))
				}
				for _, heldKey := range fact.sortedKeys() {
					if ht, at := typeKeys[heldKey], typeKeys[key]; ht != "" && at != "" && ht != at {
						order = append(order, lockOrderFact{held: ht, acquired: at, pos: sub.Pos()})
					}
				}
			}
			return lockTransfer(sub, fact)
		})
	}
	exitFact := balanceSol.In[cfg.Exit]
	for _, key := range exitFact.sortedKeys() {
		report(exitFact[key], "%s is not released on every path out of the function; add the missing Unlock or use the defer idiom", lockKeyName(key))
	}
	return order
}

type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

// lockOp classifies a node as a lock acquire/release on a canonically
// keyed sync.Mutex/RWMutex, or neither. Keys end in "#w" (Lock/Unlock)
// or "#r" (RLock/RUnlock) so the two RWMutex modes balance separately.
func lockOp(info *types.Info, n ast.Node) (string, lockKind) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", lockNone
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockNone
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", lockNone
	}
	var mode string
	var kind lockKind
	switch fn.Name() {
	case "Lock":
		mode, kind = "#w", lockAcquire
	case "Unlock":
		mode, kind = "#w", lockRelease
	case "RLock":
		mode, kind = "#r", lockAcquire
	case "RUnlock":
		mode, kind = "#r", lockRelease
	default:
		return "", lockNone
	}
	key := exprKey(info, sel.X)
	if key == "" {
		return "", lockNone
	}
	return key + mode, kind
}

// exprKey canonicalizes a lock receiver expression — an identifier or a
// chain of field selections rooted in one — to a stable per-function
// key. Anything else (index expressions, call results) is untrackable
// and yields "".
func exprKey(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			return fmt.Sprintf("%s@%d", e.Name, obj.Pos())
		}
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(info, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// lockKeyName renders a lock key for humans: strip the position
// disambiguator and the mode suffix.
func lockKeyName(key string) string {
	name := key
	mode := ""
	if cut, ok := strings.CutSuffix(name, "#w"); ok {
		name, mode = cut, ""
	} else if cut, ok := strings.CutSuffix(name, "#r"); ok {
		name, mode = cut, " (read)"
	}
	var parts []string
	for _, seg := range strings.Split(name, ".") {
		if at := strings.IndexByte(seg, '@'); at >= 0 {
			seg = seg[:at]
		}
		parts = append(parts, seg)
	}
	return strings.Join(parts, ".") + mode
}

func lockKeyNames(keys []string) string {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = lockKeyName(k)
	}
	return strings.Join(names, ", ")
}

// lockTypeKeyOf lifts one acquire site to the per-package type-level key
// lock-order facts compare across functions: the named type owning the
// mutex field plus the field name (e.g. "flightGroup.mu"). Locks that
// are not fields of a named type — plain local mutex variables — yield
// "" and stay out of ordering.
func lockTypeKeyOf(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	owner := namedType(info.TypeOf(field.X))
	if owner == nil {
		return ""
	}
	return owner.Obj().Name() + "." + field.Sel.Name
}

// reportLockOrderCycles reports pairs of lock types acquired in both
// orders within the package — the classic AB/BA deadlock shape.
func reportLockOrderCycles(p *Pass, facts []lockOrderFact) {
	type edge struct{ a, b string }
	first := map[edge]token.Pos{}
	for _, f := range facts {
		e := edge{f.held, f.acquired}
		if pos, ok := first[e]; !ok || f.pos < pos {
			first[e] = f.pos
		}
	}
	var reported []edge
	for e := range first {
		rev := edge{e.b, e.a}
		if _, ok := first[rev]; ok && e.a < e.b {
			reported = append(reported, e)
		}
	}
	sort.Slice(reported, func(i, j int) bool {
		if reported[i].a != reported[j].a {
			return reported[i].a < reported[j].a
		}
		return reported[i].b < reported[j].b
	})
	for _, e := range reported {
		pos := first[e]
		if other := first[edge{e.b, e.a}]; other > pos {
			pos = other
		}
		if p.InTestFile(pos) {
			continue
		}
		p.Reportf(pos, "lock-order cycle: %s and %s are acquired in both orders in this package (potential deadlock); pick one order and document it", e.a, e.b)
	}
}

// bannedUnderLock classifies operations that must not run while a lock
// is held; it returns a short description or "".
func bannedUnderLock(info *types.Info, n ast.Node, exemptChanOps map[ast.Node]bool) string {
	switch n := n.(type) {
	case *ast.CallExpr:
		if fn := calleeFunc(info, n); fn != nil {
			if fn.Name() == "TrySubmit" {
				return "admission-queue submit (TrySubmit)"
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
				switch fn.Name() {
				case "Do", "Get", "Post", "PostForm", "Head", "RoundTrip":
					return "HTTP round trip (http." + fn.Name() + ")"
				}
			}
			return ""
		}
		// Indirect call through a func-typed value: unknown code runs
		// inside the critical section.
		if isIndirectCall(info, n) {
			return "call through func value " + indirectCallName(n)
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !exemptChanOps[n] {
			return "channel receive"
		}
	case *ast.SendStmt:
		if !exemptChanOps[n] {
			return "channel send"
		}
	}
	return ""
}

// isIndirectCall reports whether call invokes a plain func-typed value
// (variable, parameter or field) rather than a declared function,
// method, builtin or conversion.
func isIndirectCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		obj := info.Uses[fun]
		if _, ok := obj.(*types.Var); !ok {
			return false
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if _, ok := sel.Obj().(*types.Var); !ok {
				return false
			}
		} else if _, ok := info.Uses[fun.Sel].(*types.Var); !ok {
			return false
		}
	default:
		return false
	}
	if tv, ok := info.Types[call.Fun]; ok {
		_, isSig := tv.Type.Underlying().(*types.Signature)
		return isSig
	}
	return false
}

func indirectCallName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "?"
}

// nonBlockingChanOps collects the channel operations that appear as the
// comm statement of a select clause whose select carries a default case:
// those never block.
func nonBlockingChanOps(body *ast.BlockStmt) map[ast.Node]bool {
	exempt := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				switch m.(type) {
				case *ast.UnaryExpr, *ast.SendStmt:
					exempt[m] = true
				}
				return true
			})
		}
		return true
	})
	return exempt
}

// walkSkipFuncLit visits every node of the subtree rooted at n except
// the insides of nested function literals (their flow is analyzed
// separately); the literal itself is still visited.
func walkSkipFuncLit(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(sub ast.Node) bool {
		if sub == nil {
			return false
		}
		visit(sub)
		_, isLit := sub.(*ast.FuncLit)
		return !isLit
	})
}
