package lint

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"
	"testing"
)

// cfgFromSrc parses a function body and builds its CFG (no type info:
// the shape tests exercise pure control flow; isPanicCall treats a
// syntactic panic as the builtin).
func cfgFromSrc(t *testing.T, body string) (*CFG, *token.FileSet) {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := f.Decls[0].(*ast.FuncDecl)
	return buildCFG(fn.Body, nil), fset
}

// nodeText renders one node's source text.
func nodeText(fset *token.FileSet, n ast.Node) string {
	var b bytes.Buffer
	printer.Fprint(&b, fset, n)
	return b.String()
}

// blockWith returns the unique block containing a node whose source
// includes substr.
func blockWith(t *testing.T, cfg *CFG, fset *token.FileSet, substr string) *Block {
	t.Helper()
	var found *Block
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if strings.Contains(nodeText(fset, n), substr) {
				if found != nil && found != b {
					t.Fatalf("node %q appears in blocks %d and %d", substr, found.Index, b.Index)
				}
				found = b
			}
		}
	}
	if found == nil {
		t.Fatalf("no block contains %q", substr)
	}
	return found
}

// succHas reports whether any successor of b contains substr (Exit
// matches the literal "EXIT").
func succHas(cfg *CFG, fset *token.FileSet, b *Block, substr string) bool {
	for _, s := range b.Succs {
		if substr == "EXIT" && s == cfg.Exit {
			return true
		}
		for _, n := range s.Nodes {
			if strings.Contains(nodeText(fset, n), substr) {
				return true
			}
		}
	}
	return false
}

// reachable returns the blocks reachable from b (inclusive).
func reachable(b *Block) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(x *Block) {
		if seen[x] {
			return
		}
		seen[x] = true
		for _, s := range x.Succs {
			walk(s)
		}
	}
	walk(b)
	return seen
}

func TestCFGLabeledBreakContinue(t *testing.T) {
	cfg, fset := cfgFromSrc(t, `
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if a() {
				continue outer
			}
			if b() {
				break outer
			}
			c()
		}
	}
	d()`)
	cont := blockWith(t, cfg, fset, "continue outer")
	if !succHas(cfg, fset, cont, "i++") {
		t.Errorf("continue outer should edge to the outer loop's post block (i++); succs of block %d don't", cont.Index)
	}
	brk := blockWith(t, cfg, fset, "break outer")
	if !succHas(cfg, fset, brk, "d()") {
		t.Errorf("break outer should edge past the outer loop to d(); succs of block %d don't", brk.Index)
	}
	// An unlabeled continue/break would have targeted the inner loop;
	// make sure the labeled ones do NOT edge to the inner post (j++).
	if succHas(cfg, fset, cont, "j++") {
		t.Errorf("continue outer must not edge to the inner loop's post block")
	}
}

func TestCFGDeferInLoop(t *testing.T) {
	cfg, fset := cfgFromSrc(t, `
	for i := 0; i < 3; i++ {
		acquire()
		defer release()
	}
	after()`)
	// The defer is a plain statement of the loop body block (the
	// documented model: its effect applies at its program point), and the
	// body loops back through the post block.
	body := blockWith(t, cfg, fset, "defer release()")
	if lock := blockWith(t, cfg, fset, "acquire()"); lock != body {
		t.Errorf("acquire() and defer release() should share the loop body block; got %d and %d", lock.Index, body.Index)
	}
	if !succHas(cfg, fset, body, "i++") {
		t.Errorf("loop body should edge to the post block")
	}
	if !reachable(body)[blockWith(t, cfg, fset, "after()")] {
		t.Errorf("code after the loop should be reachable from the body")
	}
}

func TestCFGSelect(t *testing.T) {
	cfg, fset := cfgFromSrc(t, `
	select {
	case <-ch:
		a()
	case ch2 <- v:
		b()
	default:
		c()
	}
	d()`)
	for _, stmt := range []string{"a()", "b()", "c()"} {
		cb := blockWith(t, cfg, fset, stmt)
		if !succHas(cfg, fset, cb, "d()") {
			t.Errorf("select clause %s should edge to d()", stmt)
		}
	}
	// The comm statement lives with its clause body.
	if blockWith(t, cfg, fset, "<-ch") != blockWith(t, cfg, fset, "a()") {
		t.Errorf("comm statement should share the clause body block")
	}
}

func TestCFGEmptySelectBlocksForever(t *testing.T) {
	cfg, fset := cfgFromSrc(t, `
	before()
	select {}
	never()`)
	entry := blockWith(t, cfg, fset, "before()")
	if reachable(entry)[blockWith(t, cfg, fset, "never()")] {
		t.Errorf("code after select{} must be unreachable")
	}
	if reachable(entry)[cfg.Exit] {
		t.Errorf("select{} never returns; Exit must be unreachable")
	}
}

func TestCFGPanicEdges(t *testing.T) {
	cfg, fset := cfgFromSrc(t, `
	defer func() {
		recover()
	}()
	if bad() {
		panic("x")
	}
	y()`)
	pb := blockWith(t, cfg, fset, `panic("x")`)
	// panic edges straight to Exit — a recover resumes in the caller,
	// not later in this body — and nothing else.
	if len(pb.Succs) != 1 || pb.Succs[0] != cfg.Exit {
		t.Errorf("panic block should have exactly the Exit successor, got %d succs", len(pb.Succs))
	}
	if !reachable(cfg.Entry)[blockWith(t, cfg, fset, "y()")] {
		t.Errorf("the non-panicking path to y() should remain reachable")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	cfg, fset := cfgFromSrc(t, `
	switch x {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	default:
		c()
	}
	d()`)
	fa := blockWith(t, cfg, fset, "a()")
	if !succHas(cfg, fset, fa, "b()") {
		t.Errorf("fallthrough should edge from case 1's body into case 2's body")
	}
	if succHas(cfg, fset, fa, "d()") {
		t.Errorf("a case ending in fallthrough must not edge to the after block")
	}
	for _, stmt := range []string{"b()", "c()"} {
		if !succHas(cfg, fset, blockWith(t, cfg, fset, stmt), "d()") {
			t.Errorf("case body %s should edge to d()", stmt)
		}
	}
}

func TestCFGGoto(t *testing.T) {
	cfg, fset := cfgFromSrc(t, `
	i := 0
loop:
	if i < 3 {
		work()
		i++
		goto loop
	}
	done()`)
	gb := blockWith(t, cfg, fset, "goto loop")
	if !succHas(cfg, fset, gb, "i < 3") {
		t.Errorf("goto should edge back to the labeled block")
	}
	if !reachable(cfg.Entry)[blockWith(t, cfg, fset, "done()")] {
		t.Errorf("done() should be reachable")
	}
}

func TestCFGReturnTerminates(t *testing.T) {
	cfg, fset := cfgFromSrc(t, `
	if c() {
		early()
		return
	}
	late()`)
	rb := blockWith(t, cfg, fset, "early()")
	if !succHas(cfg, fset, rb, "EXIT") {
		t.Errorf("return should edge to Exit")
	}
	if succHas(cfg, fset, rb, "late()") {
		t.Errorf("return must not fall through to late()")
	}
}

// TestDataflowForwardJoin checks the forward solver joins facts at merge
// points (and that solving is deterministic).
func TestDataflowForwardJoin(t *testing.T) {
	cfg, fset := cfgFromSrc(t, `
	if c() {
		a()
	} else {
		b()
	}
	d()`)
	transfer := func(b *Block, in posSet) posSet {
		fact := in
		for _, n := range b.Nodes {
			txt := nodeText(fset, n)
			for _, gen := range []string{"a()", "b()"} {
				if strings.Contains(txt, gen) {
					fact = fact.with(gen, n.Pos())
				}
			}
		}
		return fact
	}
	prob := Problem{Transfer: transfer}
	sol := cfg.Solve(prob)
	merge := blockWith(t, cfg, fset, "d()")
	got := sol.In[merge].sortedKeys()
	if len(got) != 2 || got[0] != "a()" || got[1] != "b()" {
		t.Errorf("fact at merge = %v, want union {a(), b()}", got)
	}
	if thenIn := sol.In[blockWith(t, cfg, fset, "a()")]; len(thenIn) != 0 {
		t.Errorf("branch entry fact should be empty, got %v", thenIn.sortedKeys())
	}
	again := cfg.Solve(prob)
	for _, b := range cfg.Blocks {
		if !sol.In[b].equal(again.In[b]) || !sol.Out[b].equal(again.Out[b]) {
			t.Fatalf("solver is not deterministic at block %d", b.Index)
		}
	}
}

// TestDataflowBoundary checks the boundary fact enters at Entry and
// flows to every block, and that a fact generated in a loop's post
// statement reaches the loop body around the back edge.
func TestDataflowBoundary(t *testing.T) {
	cfg, fset := cfgFromSrc(t, `
	for i := 0; i < 3; i++ {
		work()
	}
	tail()`)
	sol := cfg.Solve(Problem{
		Boundary: posSet{"entry": token.Pos(1)},
		Transfer: func(b *Block, in posSet) posSet {
			fact := in
			for _, n := range b.Nodes {
				if nodeText(fset, n) == "i++" {
					fact = fact.with("i++", n.Pos())
				}
			}
			return fact
		},
	})
	for _, probe := range []string{"work()", "tail()"} {
		got := sol.In[blockWith(t, cfg, fset, probe)].sortedKeys()
		if len(got) != 2 || got[0] != "entry" || got[1] != "i++" {
			t.Errorf("fact entering %s = %v, want {entry, i++}", probe, got)
		}
	}
}
