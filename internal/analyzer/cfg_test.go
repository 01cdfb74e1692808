package analyzer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// cfgFor parses src (a complete file) and builds the CFG of its first
// function declaration. These tests are purely syntactic — no type
// checking — which keeps the tricky-shape matrix cheap.
func cfgFor(t *testing.T, src string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test_src.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return NewCFG(fd.Body)
		}
	}
	t.Fatal("no function declaration in source")
	return nil
}

// blockCalling returns the first block containing a call to name.
func blockCalling(cfg *CFG, name string) *Block {
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return !found
			})
			if found {
				return b
			}
		}
	}
	return nil
}

// mustReach solves "is a call to name guaranteed on every path from
// entry to exit?" — the shape of a must-release property.
func mustReach(cfg *CFG, name string) bool {
	if cfg.Unstructured {
		return false
	}
	facts := ForwardSolve(cfg,
		false,                       // entry: not yet called
		func() bool { return true }, // top: unreachable blocks don't weaken the meet
		func(dst, src bool) (bool, bool) {
			merged := dst && src
			return merged, merged != dst
		},
		func(b *Block, in bool) bool {
			if in {
				return true
			}
			return blockContainsCall(b, name)
		},
	)
	// The fact at Exit entry tells whether every path called name.
	in := facts[cfg.Exit]
	if len(cfg.Exit.Preds) == 0 {
		return true // exit unreachable (infinite loop): vacuously true
	}
	return in
}

func blockContainsCall(b *Block, name string) bool {
	for _, n := range b.Nodes {
		if _, isDefer := n.(*ast.DeferStmt); isDefer {
			continue // deferred calls run at exit, not here
		}
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func TestCFGStraightLine(t *testing.T) {
	cfg := cfgFor(t, `package p
func f() { acquire(); release() }`)
	if cfg.Unstructured {
		t.Fatal("straight-line body marked unstructured")
	}
	if got := len(cfg.Exit.Preds); got != 1 {
		t.Fatalf("exit preds = %d, want 1", got)
	}
	if !mustReach(cfg, "release") {
		t.Error("release on the only path not detected as must")
	}
}

func TestCFGEarlyReturnBreaksMust(t *testing.T) {
	cfg := cfgFor(t, `package p
func f(err bool) {
	acquire()
	if err {
		return
	}
	release()
}`)
	if len(cfg.Exit.Preds) != 2 {
		t.Fatalf("exit preds = %d, want 2 (early return + fall-through)", len(cfg.Exit.Preds))
	}
	if mustReach(cfg, "release") {
		t.Error("early return path without release must break the must-property")
	}
	if !mustReach(cfg, "acquire") {
		t.Error("acquire dominates both exits and must hold")
	}
}

func TestCFGBothBranchesRestoreMust(t *testing.T) {
	cfg := cfgFor(t, `package p
func f(err bool) {
	acquire()
	if err {
		release()
		return
	}
	release()
}`)
	if !mustReach(cfg, "release") {
		t.Error("release on both the early-return and fall-through paths must hold")
	}
}

func TestCFGDeferRelease(t *testing.T) {
	cfg := cfgFor(t, `package p
func f(err bool) {
	acquire()
	defer release()
	if err {
		return
	}
	use()
}`)
	// The defer statement is emitted once, at its site in the entry
	// block, so its argument evaluation is visible there; the deferred
	// call is not a call at that site.
	var sites []*Block
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				sites = append(sites, b)
			}
		}
	}
	if len(sites) != 1 || sites[0] != cfg.Blocks[0] {
		t.Fatalf("defer emitted in %d blocks, want once, in the entry block", len(sites))
	}
	if mustReach(cfg, "release") {
		t.Error("a deferred release is not a release at the defer site")
	}
}

func TestCFGLoopShape(t *testing.T) {
	cfg := cfgFor(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		body()
		if i == 3 {
			continue
		}
		work()
	}
	done()
}`)
	head := blockCalling(cfg, "body")
	if head == nil {
		t.Fatal("loop body block not found")
	}
	// The loop head (cond test) must have two successors: body and join.
	var cond *Block
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			if s == head {
				cond = b
			}
		}
	}
	if cond == nil || len(cond.Succs) != 2 {
		t.Fatalf("loop head should branch to body and join; got %+v", cond)
	}
	// done() is reachable but not guaranteed to follow work().
	if mustReach(cfg, "work") {
		t.Error("work is skipped by continue; must-property should fail")
	}
	if !mustReach(cfg, "done") {
		t.Error("done follows the loop on every path")
	}
}

func TestCFGRangeLoopBodyMayNotRun(t *testing.T) {
	cfg := cfgFor(t, `package p
func f(xs []int) {
	for _, x := range xs {
		use(x)
	}
	done()
}`)
	if mustReach(cfg, "use") {
		t.Error("a range body may run zero times; must-property should fail")
	}
	if !mustReach(cfg, "done") {
		t.Error("done is on every path")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	cfg := cfgFor(t, `package p
func f(x int) {
	switch x {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	default:
		dflt()
	}
}`)
	one := blockCalling(cfg, "one")
	two := blockCalling(cfg, "two")
	if one == nil || two == nil {
		t.Fatal("case blocks not found")
	}
	linked := false
	for _, s := range one.Succs {
		if s == two {
			linked = true
		}
	}
	if !linked {
		t.Error("fallthrough must link case 1's body to case 2's body")
	}
	if mustReach(cfg, "two") {
		t.Error("two() is not on the default path")
	}
}

func TestCFGSwitchWithoutDefaultMayskip(t *testing.T) {
	cfg := cfgFor(t, `package p
func f(x int) {
	acquire()
	switch x {
	case 1:
		release()
	case 2:
		release()
	}
}`)
	if mustReach(cfg, "release") {
		t.Error("switch without default has a no-match path skipping release")
	}
}

func TestCFGPanicPathUnconstrained(t *testing.T) {
	cfg := cfgFor(t, `package p
func f(err bool) {
	acquire()
	if err {
		panic("corrupt")
	}
	release()
}`)
	// The panic path never reaches Exit, so release still holds on
	// every *returning* path.
	if !mustReach(cfg, "release") {
		t.Error("panic path must not count against the must-property")
	}
}

func TestCFGGotoMarksUnstructured(t *testing.T) {
	cfg := cfgFor(t, `package p
func f() {
	goto out
out:
	return
}`)
	if !cfg.Unstructured {
		t.Error("goto body must be marked unstructured")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	cfg := cfgFor(t, `package p
func f(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				break outer
			}
			inner()
		}
	}
	done()
}`)
	if cfg.Unstructured {
		t.Fatal("labeled break is structured control flow")
	}
	if !mustReach(cfg, "done") {
		t.Error("done runs on every path out of the nested loops")
	}
}

func TestCFGSelect(t *testing.T) {
	cfg := cfgFor(t, `package p
func f(a, b chan int) {
	select {
	case <-a:
		one()
	case <-b:
		two()
	}
	done()
}`)
	if mustReach(cfg, "one") {
		t.Error("one() is only on the first comm path")
	}
	if !mustReach(cfg, "done") {
		t.Error("done() follows the select on every path")
	}
}

func TestCFGNodesAppearOnce(t *testing.T) {
	// Every atomic node must appear in exactly one block: transfer
	// functions Inspect block nodes and would otherwise double-count.
	src := `package p
func f(n int, m map[int]int) int {
	total := 0
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			total += i
		} else {
			total -= i
		}
	}
	switch {
	case total > 10:
		total = 10
	default:
		total++
	}
	for k, v := range m {
		total += k + v
	}
	return total
}`
	cfg := cfgFor(t, src)
	seen := map[ast.Node]int{}
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			seen[n]++
		}
	}
	for n, c := range seen {
		if c != 1 {
			t.Errorf("node %T appears %d times across blocks", n, c)
		}
	}
	if strings.Contains(src, "goto") {
		t.Fatal("test source must stay goto-free")
	}
}
