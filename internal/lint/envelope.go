package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Envelope guards the v1 error envelope seam of the server and stream
// packages: every error response must flow through writeError so
// clients always see the {"error": {...}} shape with a request id. Outside the seam it
// reports http.Error calls, WriteHeader with a constant status >= 400,
// and hand-rolled error JSON (string literals containing `"error"`
// written straight to a ResponseWriter).
//
// It also runs one flow-sensitive check over the CFG: at most one
// status write per path per writer. A second WriteHeader/http.Error/
// writeError on a path that already wrote a status is the classic
// "missing return after writeError" bug — net/http only logs a
// superfluous-WriteHeader warning at runtime; this catches it
// statically.
var Envelope = &Analyzer{
	Name: "envelope",
	Doc:  "server/stream error responses go through the writeError envelope seam; no double status writes on any path",
	Run:  runEnvelope,
}

func runEnvelope(p *Pass) {
	if p.Pkg.Name() != "server" && p.Pkg.Name() != "stream" {
		return
	}
	// Seam checks: shape-level, anywhere in the package outside the seam
	// functions themselves.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && isEnvelopeSeam(fn) {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if p.InTestFile(call.Pos()) {
				return true
			}
			if _, ok := isPkgCall(p.Info, call, "net/http", "Error"); ok {
				p.Reportf(call.Pos(), "http.Error bypasses the v1 error envelope; use writeError so clients get the {\"error\": ...} shape")
				return true
			}
			if status, ok := constStatusWrite(p.Info, call); ok && status >= 400 {
				p.Reportf(call.Pos(), "WriteHeader(%d) writes an error status outside the writeError seam; use writeError for the v1 envelope", status)
				return true
			}
			if handRolledErrorJSON(p.Info, call) {
				p.Reportf(call.Pos(), "hand-rolled error JSON written to the ResponseWriter; use writeError so the envelope shape stays uniform")
			}
			return true
		})
	}
	// Flow check: one status write per path.
	funcBodies(p, func(sig *types.Signature, body *ast.BlockStmt) {
		doubleRespondFunc(p, body)
	})
}

// isEnvelopeSeam reports whether the declaration is the envelope seam
// itself, which is allowed to touch the wire directly.
func isEnvelopeSeam(fn *ast.FuncDecl) bool { return fn.Name.Name == "writeError" }

// constStatusWrite matches w.WriteHeader(<integer constant>) and returns
// the status.
func constStatusWrite(info *types.Info, call *ast.CallExpr) (int64, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "WriteHeader" || len(call.Args) != 1 {
		return 0, false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	status, exact := constant.Int64Val(tv.Value)
	return status, exact
}

// handRolledErrorJSON matches writes of string literals that look like
// error JSON (contain an "error" key) going to an http.ResponseWriter:
// fmt.Fprint* with a writer first arg, or w.Write.
func handRolledErrorJSON(info *types.Info, call *ast.CallExpr) bool {
	hasErrorLit := false
	for _, a := range call.Args {
		ast.Inspect(a, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				text := lit.Value
				if s, err := strconv.Unquote(lit.Value); err == nil {
					text = s
				}
				if strings.Contains(text, `"error"`) {
					hasErrorLit = true
				}
			}
			return true
		})
	}
	if !hasErrorLit {
		return false
	}
	if _, ok := isPkgCall(info, call, "fmt", "Fprint", "Fprintf", "Fprintln"); ok {
		return len(call.Args) > 0 && isResponseWriter(info, call.Args[0])
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Name() == "Write" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return isResponseWriter(info, sel.X)
		}
	}
	return false
}

// isResponseWriter reports whether the expression's type is (or
// implements, for the common named cases) http.ResponseWriter.
func isResponseWriter(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if isNamed(t, "net/http", "ResponseWriter") {
		return true
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	// Duck-typed stand-ins (golden fixtures) count if they carry the
	// ResponseWriter trio.
	var hasWrite, hasHeader bool
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "Write":
			hasWrite = true
		case "WriteHeader":
			hasHeader = true
		}
	}
	return hasWrite && hasHeader
}

// doubleRespondFunc runs the one-status-write-per-path dataflow check
// over one function body.
func doubleRespondFunc(p *Pass, body *ast.BlockStmt) {
	cfg := buildCFG(body, p.Info)

	// statusWrite returns the written-to writer's key when the node
	// commits a response status: w.WriteHeader(...), http.Error(w, ...),
	// writeError(..., w, ...).
	statusWrite := func(n ast.Node) (string, bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return "", false
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return "", false
		}
		switch {
		case fn.Name() == "WriteHeader":
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isResponseWriter(p.Info, sel.X) {
				if key := exprKey(p.Info, sel.X); key != "" {
					return key, true
				}
			}
		case fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && fn.Name() == "Error":
			if len(call.Args) > 0 {
				if key := exprKey(p.Info, call.Args[0]); key != "" {
					return key, true
				}
			}
		case fn.Name() == "writeError":
			for _, a := range call.Args {
				if isResponseWriter(p.Info, a) {
					if key := exprKey(p.Info, a); key != "" {
						return key, true
					}
				}
			}
		}
		return "", false
	}

	apply := func(b *Block, fact posSet, report func(pos, firstPos token.Pos)) posSet {
		for _, n := range b.Nodes {
			walkSkipFuncLit(n, func(sub ast.Node) {
				key, ok := statusWrite(sub)
				if !ok {
					return
				}
				if firstPos, already := fact[key]; already && report != nil {
					report(sub.Pos(), firstPos)
				}
				fact = fact.with(key, sub.Pos())
			})
		}
		return fact
	}

	sol := cfg.Solve(Problem{
		Transfer: func(b *Block, in posSet) posSet { return apply(b, in, nil) },
	})
	seen := map[token.Pos]bool{}
	for _, b := range cfg.Blocks {
		apply(b, sol.In[b], func(pos, firstPos token.Pos) {
			if seen[pos] || p.InTestFile(pos) {
				return
			}
			seen[pos] = true
			p.Reportf(pos, "HTTP status already written on this path (line %d); add the missing return",
				p.Fset.Position(firstPos).Line)
		})
	}
}
