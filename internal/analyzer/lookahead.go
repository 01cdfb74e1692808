package analyzer

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Lookahead promotes the conservative parallel executor's runtime
// causality panic (sim.Kernel.ScheduleRemote: "lookahead violation")
// to a compile-time report where the violation is statically visible:
//
//   - a ScheduleRemote whose time argument is Now()+c for a constant
//     c <= 0: the event can never clear the window horizon
//     [T, T+lookahead), on any partition;
//   - Now()+c with 0 < c below the partition's lookahead, when the
//     lookahead is itself a compile-time constant (the third argument
//     of the function's — else the package's — sim.NewPartition call);
//   - direct cross-LP state access: the callback passed to
//     ScheduleRemote executes on the DESTINATION LP, so calling a
//     scheduling method (At/After/Spawn/SpawnAt) on the sending kernel
//     inside that callback mutates another LP's event queue without
//     mailbox buffering — the data race the one-kernel-per-worker rule
//     exists to prevent;
//   - any ScheduleRemote reachable from a cohort receiver (a method on
//     a type whose name contains "cohort", and every closure wired up
//     inside one): the bundled cohort executor replays member
//     completions as event wiring on a SINGLE sequential kernel, at
//     whatever virtual time the batch completes — by construction below
//     any partition lookahead — so cohort code must never be mixed with
//     the partitioned executor. The rule is unconditional: even a
//     constant delta above every known bound is rejected, because the
//     bound that matters belongs to whichever partition later runs the
//     wiring, not to the cohort code itself.
//
// The time argument is resolved by a symbolic constant propagation over
// the CFG: facts are "this variable is Now()+c" or "this variable is
// the constant c", joined to unknown on conflicting paths, so the
// split form `t := k.Now(); k.ScheduleRemote(dst, t, fn)` is seen.
// Package sim itself is exempt (the executor manipulates horizons and
// queues by construction).
var Lookahead = &Analyzer{
	Name: "lookahead",
	Doc:  "flag ScheduleRemote below the partition lookahead, cross-LP kernel access inside remote callbacks, and any ScheduleRemote in cohort replay wiring",
	Run:  runLookahead,
}

// symVal is one symbolic time value.
type symVal struct {
	kind symKind
	c    int64 // offset from Now (symNow) or absolute constant (symConst)
}

type symKind uint8

const (
	symUnknown symKind = iota
	symNow             // Now() + c
	symConst           // the constant c
)

type symState map[types.Object]symVal

func (s symState) clone() symState {
	c := make(symState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func joinSym(dst, src symState) (symState, bool) {
	changed := false
	merged := dst
	set := func(obj types.Object, v symVal) {
		if !changed {
			merged = dst.clone()
			changed = true
		}
		merged[obj] = v
	}
	for obj, sv := range src {
		dv, ok := merged[obj]
		if !ok {
			set(obj, sv)
			continue
		}
		if dv != sv && dv.kind != symUnknown {
			set(obj, symVal{kind: symUnknown})
		}
	}
	return merged, changed
}

func runLookahead(pass *Pass) error {
	if pass.Pkg.Name() == "sim" {
		return nil
	}
	bounds := collectLookaheadBounds(pass)
	for _, fb := range funcDecls(pass.Files) {
		bound, haveBound := bounds.forFunc(fb.decl)
		checkLookaheadBody(pass, fb.decl.Body, bound, haveBound, isCohortRecv(fb.decl))
	}
	return nil
}

// isCohortRecv reports whether fd is a method on a cohort type: one
// whose name contains "cohort" (case-insensitive). The bundled cohort
// executor names its types this way on purpose (exp.cohortRun) — the
// name is the contract that the code inside runs on one sequential
// kernel and must never touch the partitioned executor's remote
// scheduling.
func isCohortRecv(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return strings.Contains(strings.ToLower(x.Name), "cohort")
		default:
			return false
		}
	}
}

// lookaheadBounds holds the constant third arguments of NewPartition
// calls, per enclosing declaration and package-wide.
type lookaheadBounds struct {
	perDecl map[*ast.FuncDecl][]int64
	pkg     []int64
}

// forFunc resolves the bound for fd: a unique function-local constant
// wins, else a unique package-wide one.
func (lb lookaheadBounds) forFunc(fd *ast.FuncDecl) (int64, bool) {
	if v, ok := uniqueConst(lb.perDecl[fd]); ok {
		return v, true
	}
	return uniqueConst(lb.pkg)
}

func uniqueConst(vs []int64) (int64, bool) {
	if len(vs) == 0 {
		return 0, false
	}
	for _, v := range vs[1:] {
		if v != vs[0] {
			return 0, false
		}
	}
	return vs[0], true
}

func collectLookaheadBounds(pass *Pass) lookaheadBounds {
	lb := lookaheadBounds{perDecl: map[*ast.FuncDecl][]int64{}}
	for _, fb := range funcDecls(pass.Files) {
		fd := fb.decl
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Name() != "NewPartition" || funcPkgName(fn) != "sim" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			if tv, ok := pass.Info.Types[call.Args[2]]; ok && tv.Value != nil {
				if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
					lb.perDecl[fd] = append(lb.perDecl[fd], v)
					lb.pkg = append(lb.pkg, v)
				}
			}
			return true
		})
	}
	return lb
}

func checkLookaheadBody(pass *Pass, body *ast.BlockStmt, bound int64, haveBound, cohort bool) {
	if body == nil {
		return
	}
	cfg := NewCFG(body)
	if cfg.Unstructured {
		return
	}
	la := &lookaheadChecker{pass: pass, bound: bound, haveBound: haveBound, cohort: cohort}
	facts := ForwardSolve(cfg, symState{},
		func() symState { return symState{} },
		joinSym,
		la.transfer,
	)
	la.reporting = true
	for _, b := range cfg.Blocks {
		la.transfer(b, facts[b])
	}
	// Closures are opaque in the outer CFG; check each body on its own
	// (free variables degrade to unknown — conservative, matching the
	// real shapes where latencies are config fields, not constants).
	// The cohort flag is inherited: a closure wired up inside a cohort
	// method IS the replay wiring and runs on the same sequential
	// kernel.
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkLookaheadBody(pass, fl.Body, bound, haveBound, cohort)
			return false
		}
		return true
	})
}

type lookaheadChecker struct {
	pass      *Pass
	bound     int64
	haveBound bool
	cohort    bool
	reporting bool
}

func (la *lookaheadChecker) transfer(b *Block, in symState) symState {
	s := in.clone()
	for _, n := range b.Nodes {
		if la.reporting {
			la.checkNode(n, s)
		}
		la.applyNode(n, s)
	}
	return s
}

func (la *lookaheadChecker) applyNode(n ast.Node, s symState) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		asg, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if asg.Tok != token.ASSIGN && asg.Tok != token.DEFINE {
			// Op-assign on a tracked value: degrade.
			for _, lhs := range asg.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := identObj(la.pass.Info, id); obj != nil {
						delete(s, obj)
					}
				}
			}
			return true
		}
		if len(asg.Lhs) != len(asg.Rhs) {
			for _, lhs := range asg.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := identObj(la.pass.Info, id); obj != nil {
						delete(s, obj)
					}
				}
			}
			return true
		}
		for i, lhs := range asg.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := identObj(la.pass.Info, id)
			if obj == nil {
				continue
			}
			if v := la.symOf(asg.Rhs[i], s); v.kind != symUnknown {
				s[obj] = v
			} else {
				delete(s, obj)
			}
		}
		return true
	})
}

func (la *lookaheadChecker) checkNode(n ast.Node, s symState) {
	ast.Inspect(n, func(x ast.Node) bool {
		// Calls inside closures are checked by the closure's own CFG
		// walk (checkLookaheadBody recursion) — not twice.
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		fn := calleeFunc(la.pass.Info, call)
		if !isMethod(fn, "sim", "ScheduleRemote") {
			return true
		}
		// R3: cohort replay wiring runs on one sequential kernel, below
		// any partition lookahead by construction — every ScheduleRemote
		// here is wrong, whatever its delta, so R1/R2 are moot.
		if la.cohort {
			la.pass.Reportf(call.Pos(),
				"ScheduleRemote inside cohort replay: bundled cohort wiring runs on a single sequential kernel below the partition lookahead by construction; cohort types must not use the partitioned executor")
			return true
		}
		// R1: statically-known delta below the lookahead.
		if v := la.symOf(call.Args[1], s); v.kind == symNow {
			switch {
			case v.c <= 0:
				la.pass.Reportf(call.Pos(),
					"ScheduleRemote at Now()%+d: the event is inside the window horizon [T, T+lookahead) on every partition and panics at runtime",
					v.c)
			case la.haveBound && v.c < la.bound:
				la.pass.Reportf(call.Pos(),
					"ScheduleRemote delta %d is below the partition lookahead %d: the event lands inside the current window horizon and panics at runtime",
					v.c, la.bound)
			}
		}
		// R2: the callback runs on the destination LP; scheduling on
		// the SENDING kernel from inside it crosses LP ownership.
		la.checkCrossLP(call)
		return true
	})
}

// crossLPMethods are the kernel methods that mutate the receiver's
// event queue (and so must only run on the owning LP's worker).
var crossLPMethods = map[string]bool{
	"At": true, "After": true, "CompleteAfter": true, "Spawn": true, "SpawnAt": true,
}

func (la *lookaheadChecker) checkCrossLP(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	srcID := rootIdent(sel.X)
	if srcID == nil {
		return
	}
	srcObj := identObj(la.pass.Info, srcID)
	if srcObj == nil {
		return
	}
	fl, ok := ast.Unparen(call.Args[2]).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(fl.Body, func(x ast.Node) bool {
		inner, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(la.pass.Info, inner)
		if !methodIn(fn, "sim", crossLPMethods) {
			return true
		}
		isel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		iid := rootIdent(isel.X)
		if iid == nil || identObj(la.pass.Info, iid) != srcObj {
			return true
		}
		la.pass.Reportf(inner.Pos(),
			"cross-LP access: this callback runs on the destination LP of ScheduleRemote, but %s.%s mutates the sending kernel's event queue; use ScheduleRemote (or the destination kernel) instead",
			iid.Name, fn.Name())
		return true
	})
}

// symOf evaluates e to a symbolic time value under state s.
func (la *lookaheadChecker) symOf(e ast.Expr, s symState) symVal {
	e = ast.Unparen(e)
	if tv, ok := la.pass.Info.Types[e]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return symVal{kind: symConst, c: v}
		}
		return symVal{kind: symUnknown}
	}
	switch e := e.(type) {
	case *ast.Ident:
		return s[identObj(la.pass.Info, e)]
	case *ast.CallExpr:
		if isMethod(calleeFunc(la.pass.Info, e), "sim", "Now") {
			return symVal{kind: symNow}
		}
		// Integer/time conversions are transparent.
		if tv, ok := la.pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return la.symOf(e.Args[0], s)
		}
	case *ast.BinaryExpr:
		x, y := la.symOf(e.X, s), la.symOf(e.Y, s)
		switch e.Op {
		case token.ADD:
			switch {
			case x.kind == symNow && y.kind == symConst:
				return symVal{kind: symNow, c: x.c + y.c}
			case x.kind == symConst && y.kind == symNow:
				return symVal{kind: symNow, c: x.c + y.c}
			case x.kind == symConst && y.kind == symConst:
				return symVal{kind: symConst, c: x.c + y.c}
			}
		case token.SUB:
			switch {
			case x.kind == symNow && y.kind == symConst:
				return symVal{kind: symNow, c: x.c - y.c}
			case x.kind == symConst && y.kind == symConst:
				return symVal{kind: symConst, c: x.c - y.c}
			}
		}
	}
	return symVal{kind: symUnknown}
}
