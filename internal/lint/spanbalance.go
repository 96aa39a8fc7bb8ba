package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// SpanBalance checks that every telemetry span started in a function is
// ended on every path out of it. A span start is a call to a method or
// function named StartSpan/StartIteration that returns an end func; the
// fact tracks the variable the end func was stored in. The analysis is
// deliberately conservative about aliasing: any use of the variable
// other than the starting assignment — calling it, deferring it,
// passing it along, returning it, comparing it, capturing it in a
// closure — counts as handing off responsibility and stops tracking.
// What remains at function exit is an end func that no path ever
// touched: a span that stays open forever on at least one return path
// (typically an early error return added after the span was
// introduced).
//
// Two shape violations are reported immediately: discarding the end
// func (`tr.StartSpan("x")` as a statement, or assigning it to `_`) and
// overwriting a still-live end func with a new one.
var SpanBalance = &Analyzer{
	Name: "spanbalance",
	Doc:  "every telemetry span started is ended on all paths out of the function",
	Run:  runSpanBalance,
}

func runSpanBalance(p *Pass) {
	funcBodies(p, func(sig *types.Signature, body *ast.BlockStmt) {
		spanBalanceFunc(p, body)
	})
}

func spanBalanceFunc(p *Pass, body *ast.BlockStmt) {
	cfg := buildCFG(body, p.Info)
	// Span labels for messages, keyed by the start call's position.
	labels := map[token.Pos]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := spanStartCall(p.Info, call); ok {
				labels[call.Pos()] = name
			}
		}
		return true
	})
	spanLabel := func(pos token.Pos) string {
		if l := labels[pos]; l != "" {
			return fmt.Sprintf("span %q", l)
		}
		return "span"
	}

	sol := cfg.Solve(Problem{
		Transfer: func(b *Block, in posSet) posSet { return spanWalkBlock(p, b, in, nil) },
	})

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
		spanWalkBlock(p, b, sol.In[b], func(pos token.Pos, startPos token.Pos, kind string) {
			switch kind {
			case "discard":
				report(pos, "the end func returned by the span start is discarded; the %s is never ended", spanLabel(pos))
			case "overwrite":
				report(pos, "end func overwritten while its %s (started at line %d) is still open; end it first",
					spanLabel(startPos), p.Fset.Position(startPos).Line)
			}
		})
	}
	exitFact := sol.In[cfg.Exit]
	for _, key := range exitFact.sortedKeys() {
		pos := exitFact[key]
		report(pos, "%s started here is not ended on every path out of the function; end it before each return or use defer", spanLabel(pos))
	}
}

// spanWalkBlock applies one block's statements to a span fact. When
// violate is non-nil (the reporting pass), shape violations are surfaced
// through it as (site, span start, kind) triples.
func spanWalkBlock(p *Pass, b *Block, fact posSet, violate func(pos, startPos token.Pos, kind string)) posSet {
	info := p.Info

	// killUses removes every tracked end func mentioned anywhere in the
	// subtree: a use means something else now owns (or at least shares)
	// the obligation to end the span.
	var killUses func(n ast.Node)
	killUses = func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(sub ast.Node) bool {
			switch sub := sub.(type) {
			case *ast.Ident:
				if key := spanVarKey(info, sub); key != "" {
					fact = fact.without(key)
				}
			case *ast.FuncLit:
				// A closure capturing the end func may call it later.
				ast.Inspect(sub.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if key := spanVarKey(info, id); key != "" {
							fact = fact.without(key)
						}
					}
					return true
				})
				return false
			}
			return true
		})
	}

	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Pairwise form only; tuple assignments from one call never
			// produce span end funcs in this codebase.
			paired := len(n.Lhs) == len(n.Rhs)
			for i, rhs := range n.Rhs {
				isStart := false
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					_, isStart = spanStartCall(info, call)
				}
				if isStart && paired {
					// The call's own subexpressions (receiver, args) may
					// still use tracked vars.
					if call := ast.Unparen(rhs).(*ast.CallExpr); true {
						killUses(call.Fun)
						for _, a := range call.Args {
							killUses(a)
						}
					}
					continue
				}
				_ = i
				killUses(rhs)
			}
			for i, lhs := range n.Lhs {
				id, isIdent := ast.Unparen(lhs).(*ast.Ident)
				if !isIdent {
					killUses(lhs)
					continue
				}
				key := spanVarKey(info, id)
				var startCall *ast.CallExpr
				if paired {
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok {
						if _, ok := spanStartCall(info, call); ok {
							startCall = call
						}
					}
				}
				if key != "" {
					if startPos, live := fact[key]; live {
						if violate != nil {
							violate(lhs.Pos(), startPos, "overwrite")
						}
						fact = fact.without(key)
					}
				}
				if startCall != nil {
					if id.Name == "_" || info.ObjectOf(id) == nil {
						if violate != nil {
							violate(startCall.Pos(), startCall.Pos(), "discard")
						}
					} else if k := objKey(info.ObjectOf(id)); k != "" {
						fact = fact.with(k, startCall.Pos())
					}
				}
			}

		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if _, ok := spanStartCall(info, call); ok {
					if violate != nil {
						violate(call.Pos(), call.Pos(), "discard")
					}
					killUses(call.Fun)
					for _, a := range call.Args {
						killUses(a)
					}
					continue
				}
			}
			killUses(n)

		case *ast.DeferStmt:
			// `defer tr.StartSpan("x")()` starts and schedules the end in
			// one statement: balanced by construction.
			if inner, ok := ast.Unparen(n.Call.Fun).(*ast.CallExpr); ok {
				if _, ok := spanStartCall(info, inner); ok {
					continue
				}
			}
			killUses(n)

		default:
			killUses(n)
		}
	}
	return fact
}

// spanStartCall reports whether the call starts a span: a call to a
// function or method named StartSpan or StartIteration whose single
// result is a func (the end callback). The returned name is the span's
// first argument when it is a string literal.
func spanStartCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	switch fn.Name() {
	case "StartSpan", "StartIteration":
	default:
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return "", false
	}
	if _, ok := sig.Results().At(0).Type().Underlying().(*types.Signature); !ok {
		return "", false
	}
	name := ""
	if len(call.Args) > 0 {
		if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				name = s
			}
		}
	}
	return name, true
}

// spanVarKey returns the tracking key of an identifier that refers to a
// local variable, or "" for anything else.
func spanVarKey(info *types.Info, id *ast.Ident) string {
	obj := info.Uses[id]
	if obj == nil {
		return ""
	}
	if _, ok := obj.(*types.Var); !ok {
		return ""
	}
	return objKey(obj)
}

// objKey keys an object by name and declaration position, which
// disambiguates shadowed variables.
func objKey(obj types.Object) string {
	if obj == nil {
		return ""
	}
	if _, ok := obj.(*types.Var); !ok {
		return ""
	}
	return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
}
