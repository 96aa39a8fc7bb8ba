package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces the zero-alloc budget on functions marked with a
// `//ndlint:hotpath` doc comment — the Fork/Reconverge/mesh/diagnose
// hot loop whose zero-alloc tests pin it at 0 allocs/op. Inside a marked
// function it flags the alloc-inducing constructs that have crept into
// hot loops before: fmt calls (every verb allocates), non-constant
// string concatenation, map literals and make(map), and append to a
// slice inside a loop when the slice was not preallocated with a
// length/capacity via make. Nested function literals inherit the
// marker: they run as part of the hot path.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no alloc-inducing constructs (fmt, string concat, map literals, unpreallocated append-in-loop) in //ndlint:hotpath functions",
	Run:  runHotAlloc,
}

// hotpathMarker is the doc-comment marker that opts a function into the
// hotalloc budget.
const hotpathMarker = "//ndlint:hotpath"

func runHotAlloc(p *Pass) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotpath(fn) {
				continue
			}
			if p.InTestFile(fn.Pos()) {
				continue
			}
			hotAllocFunc(p, fn.Body)
		}
	}
}

func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotpathMarker) {
			return true
		}
	}
	return false
}

func hotAllocFunc(p *Pass, body *ast.BlockStmt) {
	info := p.Info
	// Slices preallocated with make(T, n) or make(T, n, c) are allowed
	// to grow with append inside loops.
	prealloc := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "make" {
				continue
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				continue
			}
			if t := info.TypeOf(rhs); t != nil {
				if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
					continue
				}
			}
			if lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if obj := info.ObjectOf(lhs); obj != nil {
					prealloc[obj] = true
				}
			}
		}
		return true
	})

	inspectStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := isPkgCall(info, n, "fmt"); ok {
				p.Reportf(n.Pos(), "fmt.%s allocates; hotpath functions must stay alloc-free (build strings with strconv/append)", name)
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make":
						if t := info.TypeOf(n); t != nil {
							if _, isMap := t.Underlying().(*types.Map); isMap {
								p.Reportf(n.Pos(), "make(map) allocates; hoist the map out of the hotpath or reuse a scratch buffer")
							}
						}
					case "append":
						if inLoop(stack) && !appendPreallocated(info, n, prealloc) {
							p.Reportf(n.Pos(), "append inside a loop grows an unpreallocated slice; make it with a capacity outside the loop")
						}
					}
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.Reportf(n.Pos(), "map literal allocates; hoist it out of the hotpath")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) {
				p.Reportf(n.Pos(), "string concatenation allocates; build hotpath keys with append on a byte slice")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isNonConstString(info, n.Lhs[0]) {
				p.Reportf(n.Pos(), "string += allocates; build hotpath keys with append on a byte slice")
			}
		}
		return true
	})
}

// isNonConstString reports whether e has string type and is not a
// compile-time constant (constant folding is free).
func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return false
	}
	return tv.Value == nil
}

// inLoop reports whether the ancestor stack contains a loop.
func inLoop(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// appendPreallocated reports whether the append call grows a slice the
// function preallocated with a length/capacity.
func appendPreallocated(info *types.Info, call *ast.CallExpr, prealloc map[types.Object]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.ObjectOf(id)
	return obj != nil && prealloc[obj]
}
