package analyzer

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PoolPath checks the lifetime of pooled handles. Two ownership rules
// exist:
//
//   - Released at a call site: *mpi.Request, recycled by Rank.Wait, and
//     the MPI layer's protocol message *mpi.msg, recycled by the
//     consuming engine's releaseMsg. The next Isend (or message) may
//     overwrite a released handle's fields.
//   - Lent for one event: *simnet.Transfer. The network owns it and
//     recycles it at its last event, so the caller may use it, and the
//     Injected/Delivered futures read from it, only in the event that
//     called Send: registering steps on them (Then) is the whole
//     protocol.
//
// It runs a may-analysis over the function's CFG (cfg.go), so it sees
// more than a source-order scan would, and reports these lifetime
// violations:
//
//   - use after release on ANY path (a field read, a method call,
//     capture in a later closure), including "released in one branch,
//     used after the join";
//   - double release: a Wait/releaseMsg reached by a path on which the
//     handle is already back on the free list;
//   - leak: an acquire with a path to return on which the handle is
//     never released — including reassigning the variable to a fresh
//     handle while the previous one may still be live, and an acquire
//     whose result is dropped (an Isend as a statement, or assigned to
//     _). Comparing a handle (q != nil) observes it and keeps it
//     tracked. A local slice that collects fresh handles
//     (reqs = append(reqs, r.Isend(..))) is live until it escapes,
//     typically into Wait(reqs...);
//   - a lent transfer, or a future read from it, captured by a closure
//     (a callback runs in a later event) or stored into a field, an
//     element, an append or a channel (it outlives the event). A caller
//     that keeps a delivery completion passes its own future to
//     Network.SendFlowTo.
//
// Passing one of a handle's bound actions (a sim.Event field, such as
// a message's arrive event, taken by address; or a func-typed field or
// method value) to a call hands the handle to that callback: it is no
// longer this function's to release.
//
// Facts are a bitmask per handle object: poolLive means "may hold an
// unreleased handle", poolRel means "may be on the free list"; the join
// is bitwise-or, so poolLive|poolRel reads "released on some paths but
// not all". A handle that escapes — returned, passed to a non-release
// call, aliased, stored, or captured by a closure while live — is
// conservatively untracked (the callee or callback owns the release).
// Deferred releases count on every exit path. Functions containing goto
// are skipped (CFG.Unstructured).
var PoolPath = &Analyzer{
	Name: "poolpath",
	Doc:  "flag pooled Request/msg handles dropped, released on only some paths, double-released or used past release, and lent Transfers kept past their event",
	Run:  runPoolPath,
}

const (
	poolLive = 1 << iota // may hold an unreleased handle
	poolRel              // may be on the free list
)

// poolHandleKind reports whether t is a pooled-handle type and, if so,
// the name of the operation that recycles it, or lent for a handle the
// owner recycles itself after the acquiring event. Matching is by
// package NAME so the testdata stubs behave like the real packages.
func poolHandleKind(t types.Type) (releaseOp string, lent, ok bool) {
	ptr, isPtr := t.(*types.Pointer)
	if !isPtr {
		return "", false, false
	}
	named, isNamed := ptr.Elem().(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", false, false
	}
	switch pkg := named.Obj().Pkg().Name(); {
	case named.Obj().Name() == "Transfer" && pkg == "simnet":
		return "", true, true
	case named.Obj().Name() == "Request" && pkg == "mpi":
		return "Wait", false, true
	case named.Obj().Name() == "msg" && pkg == "mpi":
		return "releaseMsg", false, true
	}
	return "", false, false
}

// poolRelease reports whether call recycles its argument, and as which
// operation: Rank.Wait(q) (non-spread — Wait(reqs...) recycles through
// a slice the caller reuses) or engine.releaseMsg(m).
func poolRelease(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	switch {
	case isMethod(fn, "mpi", "Wait") && !call.Ellipsis.IsValid():
		return "Wait", true
	case isMethod(fn, "mpi", "releaseMsg") && len(call.Args) == 1:
		return "releaseMsg", true
	}
	return "", false
}

// poolFact is the per-object lattice element. relOp remembers which
// recycler put the handle on the free list, for the diagnostic text; of
// is the lent transfer a future was read from; lent marks a lent
// transfer and the futures read from it; slice marks a local slice
// collecting fresh handles.
type poolFact struct {
	mask  uint8
	relOp string
	of    types.Object
	lent  bool
	slice bool
}

type poolState map[types.Object]poolFact

func (s poolState) clone() poolState {
	c := make(poolState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// joinPool merges src into a copy of dst (may-union).
func joinPool(dst, src poolState) (poolState, bool) {
	changed := false
	merged := dst
	for obj, sf := range src {
		df, ok := merged[obj]
		nf := poolFact{mask: df.mask | sf.mask, relOp: df.relOp, of: df.of, lent: df.lent || sf.lent, slice: df.slice || sf.slice}
		if nf.relOp == "" {
			nf.relOp = sf.relOp
		}
		if nf.of == nil {
			nf.of = sf.of
		}
		if !ok || nf != df {
			if !changed {
				merged = dst.clone()
				changed = true
			}
			merged[obj] = nf
		}
	}
	return merged, changed
}

func runPoolPath(pass *Pass) error {
	for _, fb := range funcDecls(pass.Files) {
		checkPoolPathBody(pass, fb.decl.Body)
	}
	return nil
}

func checkPoolPathBody(pass *Pass, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	cfg := NewCFG(body)
	if cfg.Unstructured {
		return
	}

	pp := &poolPather{pass: pass}
	facts := ForwardSolve(cfg, poolState{},
		func() poolState { return poolState{} },
		joinPool,
		pp.transfer,
	)

	// Reporting pass: re-run each block's transfer from its solved
	// in-fact with reporting enabled. Doing this after the fixpoint
	// (rather than inside the solve) keeps each diagnostic single.
	pp.reporting = true
	for _, b := range cfg.Blocks {
		pp.transfer(b, facts[b])
	}

	// Exit check: apply deferred releases, then anything that may still
	// be live leaks on some path.
	exit := facts[cfg.Exit].clone()
	for _, d := range cfg.Defers {
		if _, ok := poolRelease(pass.Info, d); ok {
			for _, a := range d.Args {
				if obj := argIdentObj(pass, a); obj != nil {
					delete(exit, obj)
				}
			}
		}
	}
	if len(cfg.Exit.Preds) > 0 { // unreachable exit: nothing returns
		type leak struct {
			pos token.Pos
			obj types.Object
			op  string
		}
		var leaks []leak
		for obj, f := range exit {
			if f.mask&poolLive == 0 || f.lent {
				continue
			}
			pos, op := pp.acquireSite(obj)
			if !pos.IsValid() {
				continue // released-param tracking only; no acquire here
			}
			leaks = append(leaks, leak{pos, obj, op})
		}
		sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
		for _, l := range leaks {
			what, suffix := "pooled handle", ""
			if exit[l.obj].slice {
				what = "pooled handles appended to"
			}
			if exit[l.obj].mask&poolRel != 0 {
				suffix = " (released on some paths but not all)"
			}
			pass.Reportf(l.pos,
				"%s %q acquired here may reach return without %s%s: it leaks from the free list",
				what, l.obj.Name(), l.op, suffix)
		}
	}

	// Nested closures get their own independent walk: inside the outer
	// CFG a FuncLit body is opaque (captured handles escape), but the
	// closure's own acquire/release discipline is checked separately.
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkPoolPathBody(pass, fl.Body)
			return false
		}
		return true
	})
}

// poolPather carries the per-function bookkeeping shared between the
// solve and the reporting pass.
type poolPather struct {
	pass      *Pass
	reporting bool
	// acquires records, per object, the position and recycler-op of its
	// acquire sites seen during the reporting pass.
	acquires map[types.Object][]acquireSite
}

type acquireSite struct {
	pos token.Pos
	op  string
}

func (pp *poolPather) acquireSite(obj types.Object) (token.Pos, string) {
	sites := pp.acquires[obj]
	if len(sites) == 0 {
		return token.NoPos, ""
	}
	// Report the last acquire: with rebinding, the earlier epochs were
	// closed (or already reported as reassign-before-release).
	s := sites[len(sites)-1]
	return s.pos, s.op
}

func (pp *poolPather) report(pos token.Pos, format string, args ...interface{}) {
	if pp.reporting {
		pp.pass.Reportf(pos, format, args...)
	}
}

// reportLent reports a lent transfer (or a future read from it) kept
// past its sending event; how says in what way.
func (pp *poolPather) reportLent(pos token.Pos, obj types.Object, f poolFact, how string) {
	if f.of != nil {
		pp.report(pos,
			"future %q of pooled transfer %q %s: the network recycles the transfer, futures included, at its last event",
			obj.Name(), f.of.Name(), how)
		return
	}
	pp.report(pos,
		"pooled transfer %q %s: the network recycles it at its last event, so it is lent only for the sending event",
		obj.Name(), how)
}

// reportUseAfter reports a use of obj, whose fact f says it may be on
// the free list.
func (pp *poolPather) reportUseAfter(pos token.Pos, obj types.Object, f poolFact) {
	pp.report(pos,
		"pooled handle %q used after %s: it is on the free list and the next operation may recycle it",
		obj.Name(), f.relOp)
}

// transfer interprets one block. The same function implements both the
// solver's transfer and the reporting pass (pp.reporting set, called
// once per block from the solved in-fact).
func (pp *poolPather) transfer(b *Block, in poolState) poolState {
	st := in.clone()
	for _, n := range b.Nodes {
		pp.node(n, st)
	}
	return st
}

// node processes one atomic CFG node in program order: closures first
// (captured handles), then releases, then acquires, then remaining
// ident uses/escapes.
func (pp *poolPather) node(n ast.Node, st poolState) {
	handled := map[*ast.Ident]bool{}

	// 0. Defers: the deferred call runs at function exit, not here —
	// the exit check in checkPoolPathBody applies CFG.Defers. Mark the
	// whole subtree handled so a `defer r.Wait(q)` is neither an
	// immediate release nor a use.
	ast.Inspect(n, func(x ast.Node) bool {
		ds, ok := x.(*ast.DeferStmt)
		if !ok {
			return true
		}
		ast.Inspect(ds, func(y ast.Node) bool {
			if id, ok := y.(*ast.Ident); ok {
				handled[id] = true
			}
			return true
		})
		return false
	})

	// 1. Closures: a tracked handle captured while live escapes (the
	// callback owns it now); captured after release it is a use-after.
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.DeferStmt); ok {
			return false
		}
		fl, ok := x.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(fl.Body, func(y ast.Node) bool {
			id, ok := y.(*ast.Ident)
			if !ok {
				return true
			}
			if handled[id] {
				return true
			}
			handled[id] = true
			obj := identObj(pp.pass.Info, id)
			if obj == nil {
				return true
			}
			if f, tracked := st[obj]; tracked {
				switch {
				case f.lent:
					pp.reportLent(id.Pos(), obj, f, "used in a callback")
				case f.mask&poolRel != 0:
					pp.reportUseAfter(id.Pos(), obj, f)
				default:
					delete(st, obj) // escapes into the closure
				}
			}
			return true
		})
		return false // body idents handled above; skip generic walk
	})

	// 2. Release calls (poolRelease).
	ast.Inspect(n, func(x ast.Node) bool {
		switch x.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := poolRelease(pp.pass.Info, call)
		if !ok {
			return true
		}
		// The receiver is evaluated before the call releases its
		// arguments: `m.eng.releaseMsg(m)` reads m, then releases it.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args := map[types.Object]bool{}
			for _, a := range call.Args {
				if obj := argIdentObj(pp.pass, a); obj != nil {
					args[obj] = true
				}
			}
			ast.Inspect(sel.X, func(y ast.Node) bool {
				if id, ok := y.(*ast.Ident); ok && args[identObj(pp.pass.Info, id)] {
					handled[id] = true
				}
				return true
			})
		}
		for _, a := range call.Args {
			id, ok := ast.Unparen(a).(*ast.Ident)
			if !ok {
				continue
			}
			handled[id] = true
			obj := identObj(pp.pass.Info, id)
			if obj == nil {
				continue
			}
			if f, tracked := st[obj]; tracked && f.mask&poolRel != 0 {
				pp.reportUseAfter(call.Pos(), obj, f)
			}
			st[obj] = poolFact{mask: poolRel, relOp: op}
		}
		return true
	})

	// 3. Acquires: lhs := call-returning-handle. Overwriting a possibly
	// still-live handle leaks the previous one.
	ast.Inspect(n, func(x ast.Node) bool {
		switch x.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		if es, ok := x.(*ast.ExprStmt); ok {
			pp.reportDropped(es.X)
			return true
		}
		asg, ok := x.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, rhs := range asg.Rhs {
			if id, ok := ast.Unparen(asg.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
				pp.reportDropped(rhs)
				continue
			}
			if obj, op := pp.appendsHandle(asg.Lhs[i], rhs, handled); obj != nil {
				st[obj] = poolFact{mask: poolLive, slice: true}
				pp.recordAcquire(obj, asg.Pos(), op)
				continue
			}
			if f, ok := pp.lentOf(rhs, st); ok {
				if id, ok := ast.Unparen(asg.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
					if obj := identObj(pp.pass.Info, id); obj != nil {
						handled[id] = true
						st[obj] = f
					}
				}
				continue
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			t := pp.pass.Info.TypeOf(call)
			if t == nil {
				continue
			}
			op, lent, isHandle := poolHandleKind(t)
			if !isHandle {
				continue
			}
			id, ok := ast.Unparen(asg.Lhs[i]).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			handled[id] = true
			obj := identObj(pp.pass.Info, id)
			if obj == nil {
				continue
			}
			if lent {
				st[obj] = poolFact{mask: poolLive, lent: true}
				continue
			}
			if f, tracked := st[obj]; tracked && f.mask&poolLive != 0 && !f.lent && !f.slice {
				pp.report(asg.Pos(),
					"pooled handle %q reassigned before %s: the previous handle leaks from the free list",
					obj.Name(), f.relOp2(op))
			}
			st[obj] = poolFact{mask: poolLive}
			pp.recordAcquire(obj, asg.Pos(), op)
		}
		// A plain rebind (non-handle RHS) closes the epoch for the lhs.
		for _, lhs := range asg.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || handled[id] {
				continue
			}
			if obj := identObj(pp.pass.Info, id); obj != nil {
				if _, tracked := st[obj]; tracked {
					handled[id] = true
					delete(st, obj)
				}
			}
		}
		return true
	})

	// 4. Remaining ident occurrences. After release, ANY occurrence is
	// a use-after-release. While live, a bare occurrence (anything but
	// the receiver of a field/method selector) hands the handle to code
	// this function cannot see — untrack.
	parents := buildParents(n)
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || handled[id] {
			return true
		}
		obj := identObj(pp.pass.Info, id)
		if obj == nil {
			return true
		}
		if pp.pass.Info.Defs[id] != nil {
			// A fresh binding outside an AssignStmt (a range key/value,
			// re-bound each iteration): the old value is rebound away,
			// not used.
			delete(st, obj)
			return true
		}
		f, tracked := st[obj]
		if !tracked {
			return true
		}
		if _, ok := parents[id].(*ast.BinaryExpr); ok {
			return true // a comparison (q != nil) observes the pointer
		}
		if f.lent {
			// Selectors, call arguments and returns stay inside the
			// sending event; a store outlives it.
			if isStore(pp.pass.Info, parents, id) {
				pp.reportLent(id.Pos(), obj, f, "stored past its sending event")
			}
			return true
		}
		if f.mask&poolRel != 0 {
			pp.reportUseAfter(id.Pos(), obj, f)
			return true
		}
		if sel, ok := parents[id].(*ast.SelectorExpr); ok && sel.X == id {
			if handsOff(pp.pass.Info, parents, sel) {
				delete(st, obj) // a bound action registered: the callback owns it
			}
			return true // field read / method call on the live handle
		}
		delete(st, obj) // escapes: return, call arg, alias, store, send
		return true
	})
}

// recordAcquire notes, in the reporting pass, that obj acquires at pos.
func (pp *poolPather) recordAcquire(obj types.Object, pos token.Pos, op string) {
	if !pp.reporting {
		return
	}
	if pp.acquires == nil {
		pp.acquires = map[types.Object][]acquireSite{}
	}
	pp.acquires[obj] = append(pp.acquires[obj], acquireSite{pos, op})
}

// reportDropped reports e, an expression whose value is discarded, if
// it acquires a pooled handle that must be released: nothing can ever
// release it.
func (pp *poolPather) reportDropped(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(pp.pass.Info, call)
	if op, lent, ok := poolHandleKind(pp.pass.Info.TypeOf(call)); ok && !lent && fn != nil {
		pp.report(call.Pos(), "result of %s is dropped: the pooled handle can never reach %s", fn.Name(), op)
	}
}

// appendsHandle reports whether `lhs = append(..., acquire(), ...)`
// collects a freshly acquired handle into a local slice, returning the
// slice variable and the handle's recycler. The slice then stays live
// until it escapes, for instance into Wait(reqs...). Its own occurrence
// in the first argument is marked handled: it is the same slice, not
// an escape.
func (pp *poolPather) appendsHandle(lhs, rhs ast.Expr, handled map[*ast.Ident]bool) (types.Object, string) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || !isCall || len(call.Args) < 2 || !isBuiltinCall(pp.pass.Info, call, "append") {
		return nil, ""
	}
	obj := identObj(pp.pass.Info, id)
	if obj == nil || obj.Parent() == pp.pass.Pkg.Scope() {
		return nil, "" // a package-level slice outlives the function
	}
	for _, a := range call.Args[1:] {
		if _, ok := ast.Unparen(a).(*ast.CallExpr); !ok {
			continue
		}
		if op, lent, ok := poolHandleKind(pp.pass.Info.TypeOf(a)); ok && !lent {
			handled[id] = true
			if root := rootIdent(call.Args[0]); root != nil && identObj(pp.pass.Info, root) == obj {
				handled[root] = true
			}
			return obj, op
		}
	}
	return nil, ""
}

// lentOf returns the fact a local bound to rhs inherits from a lent
// transfer: an alias of the transfer, or its Injected/Delivered future.
func (pp *poolPather) lentOf(rhs ast.Expr, st poolState) (poolFact, bool) {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		if f, tracked := st[identObj(pp.pass.Info, e)]; tracked && f.lent {
			return f, true
		}
	case *ast.SelectorExpr:
		if e.Sel.Name != "Injected" && e.Sel.Name != "Delivered" {
			return poolFact{}, false
		}
		tr := argIdentObj(pp.pass, e.X)
		if f, tracked := st[tr]; tracked && f.lent && f.of == nil {
			return poolFact{mask: poolLive, of: tr, lent: true}, true
		}
	}
	return poolFact{}, false
}

// isStore reports whether id sits where its value outlives the current
// event: assigned into a field, element or pointee, appended, placed in
// a composite literal, or sent on a channel.
func isStore(info *types.Info, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	switch p := parents[id].(type) {
	case *ast.AssignStmt:
		for i, r := range p.Rhs {
			if r == ast.Expr(id) && i < len(p.Lhs) {
				_, plain := ast.Unparen(p.Lhs[i]).(*ast.Ident)
				return !plain
			}
		}
	case *ast.CallExpr:
		return len(p.Args) > 0 && p.Args[0] != ast.Expr(id) && isBuiltinCall(info, p, "append")
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	case *ast.SendStmt:
		return p.Value == ast.Expr(id)
	}
	return false
}

// handsOff reports whether sel, a selector on a tracked handle, is one
// of the handle's bound actions passed to a call: a sim.Event field
// (passed by address) or a func-typed field or method value, given as
// an argument, which makes the callee's callback the handle's owner.
func handsOff(info *types.Info, parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	arg := ast.Expr(sel)
	switch t := info.TypeOf(sel).(type) {
	case *types.Signature:
	case *types.Named:
		if t.Obj().Name() != "Event" || t.Obj().Pkg() == nil || t.Obj().Pkg().Name() != "sim" {
			return false
		}
		addr, ok := parents[sel].(*ast.UnaryExpr)
		if !ok || addr.Op != token.AND {
			return false
		}
		arg = addr
	default:
		return false
	}
	call, ok := parents[arg].(*ast.CallExpr)
	if !ok {
		return false
	}
	for _, a := range call.Args {
		if a == arg {
			return true
		}
	}
	return false
}

// relOp2 names the expected recycler in the reassign diagnostic: the
// fact's op when already (partially) released, else the acquire's.
func (f poolFact) relOp2(acqOp string) string {
	if f.relOp != "" {
		return f.relOp
	}
	return acqOp
}

// argIdentObj resolves a plain identifier argument to its object (nil
// for composite expressions — only named handles are tracked).
func argIdentObj(pass *Pass, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return identObj(pass.Info, id)
	}
	return nil
}
