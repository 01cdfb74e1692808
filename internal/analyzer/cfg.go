package analyzer

// Control-flow graphs for the dataflow analyzers (see dataflow.go for
// the solver). The first five collvet analyzers are per-node syntactic
// matchers; the flow-sensitive rules (maporder, poolpath, simtime,
// lookahead) need to answer path questions — "is Wait called on
// *every* path from this Isend to a return?" — so this file lowers one
// function body into basic blocks of *atomic* nodes connected by
// control edges.
//
// Atomic nodes are simple statements (assignments, expression and
// send statements, declarations, inc/dec, returns) and the *condition
// expressions* of structured statements. Compound statements never
// appear inside a block: an if contributes its init and cond to the
// current block and its branches become separate blocks, so a
// transfer function may ast.Inspect every node of a block without
// ever seeing the same source construct twice. Function literals DO
// appear inline (inside whatever expression carries them): analyzers
// decide per-rule whether a closure body is "executed here"
// (conservatively true for lifetime rules — matching payloadalias).
//
// Two constructs get special treatment:
//
//   - defer: the deferred call is recorded in CFG.Defers and the
//     *ast.DeferStmt node is emitted so argument evaluation is
//     visible at the defer site; transfer functions that care about
//     the call itself apply Defers at the Exit block (a deferred
//     Wait releases on every exit path).
//   - panic(...): terminates its block with no successor. Must-style
//     exit checks therefore do not constrain panic paths, matching
//     the runtime (a panicking simulation never recycles handles).
//
// goto is not modeled: the body is marked Unstructured and analyzers
// skip the function (the module is goto-free; staying conservative
// beats a wrong edge).

import (
	"go/ast"
)

// Block is one basic block: a maximal straight-line sequence of atomic
// nodes with control entering only at the top and leaving only at the
// bottom.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block in creation order; Blocks[0] is the
	// entry block.
	Blocks []*Block
	// Exit is the single synthetic exit block. Every return statement
	// and the fall-off end of the body has an edge to it; panic paths
	// do not.
	Exit *Block
	// Defers lists deferred calls in source order. They execute on
	// every path reaching Exit (and on panic paths, which the CFG does
	// not model — analyzers using Defers for must-properties get
	// strictly conservative results).
	Defers []*ast.CallExpr
	// Unstructured is set when the body contains goto; block structure
	// is then incomplete and flow-sensitive analyzers must skip the
	// function.
	Unstructured bool
	// Loops records every range loop with its head block, for analyzers
	// that reason about "everything executed inside this loop" (see
	// CFG.LoopMembers).
	Loops []RangeLoop
}

// RangeLoop is one `for ... range` statement lowered into the CFG.
type RangeLoop struct {
	Rng  *ast.RangeStmt
	Head *Block // per-iteration binding/test block; back edges land here
}

// LoopMembers returns the blocks of the natural loop of l: the head
// plus every block that can reach a back edge into the head without
// leaving through it. Blocks of nested loops are included (their code
// runs once per outer iteration too).
func (c *CFG) LoopMembers(l RangeLoop) []*Block {
	members := map[*Block]bool{l.Head: true}
	var stack []*Block
	for _, p := range l.Head.Preds {
		// Structured lowering creates body and continue blocks after the
		// head, so back-edge sources are exactly the higher-indexed preds.
		if p.Index > l.Head.Index {
			stack = append(stack, p)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if members[b] {
			continue
		}
		members[b] = true
		stack = append(stack, b.Preds...)
	}
	out := make([]*Block, 0, len(members))
	for _, b := range c.Blocks {
		if members[b] {
			out = append(out, b)
		}
	}
	return out
}

// NewCFG lowers a function body into basic blocks. body may be nil
// (declared externally); the result then has only an entry wired to
// Exit.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	entry := b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.cfg.Exit) // fall-off-end return
	return b.cfg
}

// branchTarget is one enclosing breakable/continuable construct.
type branchTarget struct {
	label string
	block *Block
}

type cfgBuilder struct {
	cfg   *CFG
	cur   *Block // nil while flow is unreachable (after return/break/panic)
	brks  []branchTarget
	conts []branchTarget
	// pendingLabel names the label wrapping the next loop/switch (for
	// labeled break/continue).
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// link adds the edge from → to.
func link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to dst and marks flow
// unreachable (callers start a fresh block when flow resumes).
func (b *cfgBuilder) jump(dst *Block) {
	if b.cur != nil {
		link(b.cur, dst)
	}
	b.cur = nil
}

// startBlock makes blk current, linking from the previous block when
// flow was live.
func (b *cfgBuilder) startBlock(blk *Block) {
	if b.cur != nil {
		link(b.cur, blk)
	}
	b.cur = blk
}

// emit appends an atomic node to the current block.
func (b *cfgBuilder) emit(n ast.Node) {
	if b.cur == nil || n == nil {
		return
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// findTarget resolves a (possibly labeled) break/continue target.
func findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

// isPanicCall reports whether s is a statement-level call to the
// builtin panic.
func isPanicCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.ReturnStmt:
		b.emit(s)
		b.jump(b.cfg.Exit)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s.Call)
		b.emit(s)
	default:
		// Assign, expr, send, inc/dec, decl, go, empty: atomic.
		b.emit(s)
		if isPanicCall(s) {
			b.cur = nil // panic terminates the path
		}
	}
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if t := findTarget(b.brks, label); t != nil {
			b.jump(t)
		} else {
			b.cur = nil
		}
	case "continue":
		if t := findTarget(b.conts, label); t != nil {
			b.jump(t)
		} else {
			b.cur = nil
		}
	case "goto":
		b.cfg.Unstructured = true
		b.cur = nil
	case "fallthrough":
		// Handled structurally by switchStmt; reaching here means a
		// malformed tree — terminate conservatively.
		b.cur = nil
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.emit(s.Cond)
	condBlk := b.cur
	join := b.newBlock()

	thenBlk := b.newBlock()
	if condBlk != nil {
		link(condBlk, thenBlk)
	}
	b.cur = thenBlk
	b.stmt(s.Body)
	b.jump(join)

	if s.Else != nil {
		elseBlk := b.newBlock()
		if condBlk != nil {
			link(condBlk, elseBlk)
		}
		b.cur = elseBlk
		b.stmt(s.Else)
		b.jump(join)
	} else if condBlk != nil {
		link(condBlk, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock() // condition test, one entry per iteration
	body := b.newBlock()
	join := b.newBlock()
	post := head
	if s.Post != nil {
		post = b.newBlock()
	}

	b.startBlock(head)
	if s.Cond != nil {
		b.emit(s.Cond)
		link(head, join) // cond false
	}
	link(head, body)

	b.brks = append(b.brks, branchTarget{label, join})
	b.conts = append(b.conts, branchTarget{label, post})
	b.cur = body
	b.stmt(s.Body)
	if s.Post != nil {
		b.jump(post)
		b.cur = post
		b.stmt(s.Post)
	}
	b.jump(head) // back edge
	b.brks = b.brks[:len(b.brks)-1]
	b.conts = b.conts[:len(b.conts)-1]

	// for {} with no break leaves join predecessor-less; the solver
	// treats such blocks as unreachable (bottom facts).
	b.cur = join
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	// X evaluates once, before the loop.
	b.emit(s.X)
	head := b.newBlock() // per-iteration key/value binding + test
	body := b.newBlock()
	join := b.newBlock()
	b.cfg.Loops = append(b.cfg.Loops, RangeLoop{Rng: s, Head: head})

	b.startBlock(head)
	// The per-iteration bindings are represented by the key/value
	// expressions themselves; analyzers needing the definitions see
	// them here once per CFG walk.
	if s.Key != nil {
		b.emit(s.Key)
	}
	if s.Value != nil {
		b.emit(s.Value)
	}
	link(head, body)
	link(head, join) // range exhausted

	b.brks = append(b.brks, branchTarget{label, join})
	b.conts = append(b.conts, branchTarget{label, head})
	b.cur = body
	b.stmt(s.Body)
	b.jump(head)
	b.brks = b.brks[:len(b.brks)-1]
	b.conts = b.conts[:len(b.conts)-1]

	b.cur = join
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.emit(s.Tag)
	}
	sel := b.cur
	join := b.newBlock()
	b.brks = append(b.brks, branchTarget{label, join})

	// Pre-create one body block per clause so fallthrough can target
	// the next clause's body.
	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	hasDefault := false
	for i, c := range clauses {
		if c.List == nil {
			hasDefault = true
		}
		if sel != nil {
			link(sel, bodies[i])
		}
		b.cur = bodies[i]
		for _, e := range c.List {
			b.emit(e)
		}
		falls := false
		for _, st := range c.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				falls = true
				break
			}
			b.stmt(st)
		}
		if falls && i+1 < len(bodies) {
			b.jump(bodies[i+1])
		} else {
			b.jump(join)
		}
	}
	if !hasDefault && sel != nil {
		link(sel, join) // no clause matched
	}
	b.brks = b.brks[:len(b.brks)-1]
	b.cur = join
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.emit(s.Assign) // x := y.(type) — evaluates y
	sel := b.cur
	join := b.newBlock()
	b.brks = append(b.brks, branchTarget{label, join})
	hasDefault := false
	for _, cs := range s.Body.List {
		c := cs.(*ast.CaseClause)
		if c.List == nil {
			hasDefault = true
		}
		body := b.newBlock()
		if sel != nil {
			link(sel, body)
		}
		b.cur = body
		b.stmtList(c.Body)
		b.jump(join)
	}
	if !hasDefault && sel != nil {
		link(sel, join)
	}
	b.brks = b.brks[:len(b.brks)-1]
	b.cur = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	sel := b.cur
	join := b.newBlock()
	b.brks = append(b.brks, branchTarget{label, join})
	for _, cs := range s.Body.List {
		c := cs.(*ast.CommClause)
		body := b.newBlock()
		if sel != nil {
			link(sel, body)
		}
		b.cur = body
		if c.Comm != nil {
			b.stmt(c.Comm)
		}
		b.stmtList(c.Body)
		b.jump(join)
	}
	b.brks = b.brks[:len(b.brks)-1]
	b.cur = join
}
