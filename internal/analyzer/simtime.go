package analyzer

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimTime flags unit confusion between the three integer domains the
// simulator juggles — virtual time (sim.Time), host time
// (time.Duration) and raw byte counts — inside the deterministic zone:
//
//   - a conversion between sim.Time and time.Duration (either
//     direction): the virtual clock and the host clock do not share an
//     epoch or a rate, so such a cast is always a category error in
//     kernel code (exporters outside the zone may format however they
//     like);
//   - a byte count cast to sim.Time without a cost scale: bytes become
//     time only via a rate (multiply by a per-byte cost, divide by a
//     bandwidth). The sanctioned shapes — sim.Time(n)*costPerByte,
//     sim.Time(bytes/bw) — are exempt; a bare sim.Time(bytes) silently
//     treats "4096 bytes" as "4096 nanoseconds".
//
// Byte-ness is a forward dataflow over the CFG: len/cap of a []byte,
// integer .Size/.Bytes fields (the pooled Transfer/Payload shape) and
// anything derived from them by +/- stay byte-tainted through local
// variables; multiplying or dividing kills the taint (a rate was
// applied). This catches the split form `n := len(buf); ...;
// d := sim.Time(n)` that a per-node matcher misses.
var SimTime = &Analyzer{
	Name: "simtime",
	Doc:  "forbid sim.Time/time.Duration casts and unscaled byte-count-to-sim.Time conversions in deterministic packages",
	Run:  runSimTime,
}

func runSimTime(pass *Pass) error {
	if !inDeterministicZone(pass.Pkg.Path()) {
		return nil
	}
	for _, fb := range funcDecls(pass.Files) {
		checkSimTimeBody(pass, fb.decl.Body)
	}
	return nil
}

type taintState map[types.Object]bool

func (s taintState) clone() taintState {
	c := make(taintState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func joinTaint(dst, src taintState) (taintState, bool) {
	changed := false
	merged := dst
	for obj := range src {
		if !merged[obj] {
			if !changed {
				merged = dst.clone()
				changed = true
			}
			merged[obj] = true
		}
	}
	return merged, changed
}

func checkSimTimeBody(pass *Pass, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	cfg := NewCFG(body)
	if cfg.Unstructured {
		return
	}
	st := &simTimer{pass: pass, parents: buildParents(body)}
	facts := ForwardSolve(cfg, taintState{},
		func() taintState { return taintState{} },
		joinTaint,
		st.transfer,
	)
	st.reporting = true
	for _, b := range cfg.Blocks {
		st.transfer(b, facts[b])
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkSimTimeBody(pass, fl.Body)
			return false
		}
		return true
	})
}

type simTimer struct {
	pass      *Pass
	parents   map[ast.Node]ast.Node
	reporting bool
}

func (st *simTimer) transfer(b *Block, in taintState) taintState {
	s := in.clone()
	for _, n := range b.Nodes {
		if st.reporting {
			st.checkNode(n, s)
		}
		st.applyNode(n, s)
	}
	return s
}

// applyNode updates byte-taint through assignments (closures are
// opaque here; their bodies get their own walk).
func (st *simTimer) applyNode(n ast.Node, s taintState) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		asg, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch asg.Tok {
		case token.ASSIGN, token.DEFINE:
			if len(asg.Lhs) != len(asg.Rhs) {
				break // multi-value call: no byte provenance tracked
			}
			for i, lhs := range asg.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := identObj(st.pass.Info, id)
				if obj == nil {
					continue
				}
				if st.tainted(asg.Rhs[i], s) {
					s[obj] = true
				} else {
					delete(s, obj)
				}
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			// x += bytes keeps/spreads taint; other op-assigns scale.
			if len(asg.Lhs) == 1 && len(asg.Rhs) == 1 {
				if id, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident); ok {
					if obj := identObj(st.pass.Info, id); obj != nil {
						if st.tainted(asg.Rhs[0], s) {
							s[obj] = true
						}
					}
				}
			}
		default:
			// *=, /=, etc.: a rate was applied; clear.
			if len(asg.Lhs) == 1 {
				if id, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident); ok {
					if obj := identObj(st.pass.Info, id); obj != nil {
						delete(s, obj)
					}
				}
			}
		}
		return true
	})
}

// checkNode reports the two conversion hazards at this node.
func (st *simTimer) checkNode(n ast.Node, s taintState) {
	ast.Inspect(n, func(x ast.Node) bool {
		// Conversions inside closures are checked by the closure's own
		// CFG walk (checkSimTimeBody recursion) — not twice.
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := st.pass.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		target := tv.Type
		argT := st.pass.Info.TypeOf(call.Args[0])
		if argT == nil {
			return true
		}
		switch {
		case isNamedType(target, "sim", "Time") && isNamedType(argT, "time", "Duration"):
			st.pass.Reportf(call.Pos(),
				"time.Duration converted to sim.Time inside deterministic package %s: the virtual clock does not share the host clock's epoch or rate",
				st.pass.Pkg.Path())
		case isNamedType(target, "time", "Duration") && isNamedType(argT, "sim", "Time"):
			st.pass.Reportf(call.Pos(),
				"sim.Time converted to time.Duration inside deterministic package %s: export formatting belongs outside the zone",
				st.pass.Pkg.Path())
		case isNamedType(target, "sim", "Time") &&
			st.tainted(call.Args[0], s) && !st.scaledUse(call):
			st.pass.Reportf(call.Pos(),
				"raw byte count converted to sim.Time without a cost scale: multiply by a per-byte cost or divide by a bandwidth")
		}
		return true
	})
}

// scaledUse reports whether the conversion result immediately meets a
// rate: it is an operand of * or / (sim.Time(n)*costPerByte).
func (st *simTimer) scaledUse(call *ast.CallExpr) bool {
	n := ast.Node(call)
	for {
		p := st.parents[n]
		if pp, ok := p.(*ast.ParenExpr); ok {
			n = pp
			continue
		}
		be, ok := p.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		return be.Op == token.MUL || be.Op == token.QUO
	}
}

// tainted reports whether e carries raw-byte-count provenance under
// state s.
func (st *simTimer) tainted(e ast.Expr, s taintState) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := identObj(st.pass.Info, e)
		return obj != nil && s[obj]
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB:
			return st.tainted(e.X, s) || st.tainted(e.Y, s)
		}
		return false // *, /, %, shifts: a rate or repartition was applied
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return st.tainted(e.X, s)
		}
		return false
	case *ast.CallExpr:
		// len/cap of a byte slice are the taint sources; integer
		// conversions are transparent.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := st.pass.Info.Uses[id].(*types.Builtin); ok {
				if (b.Name() == "len" || b.Name() == "cap") && len(e.Args) == 1 {
					return isByteSlice(st.pass.Info.TypeOf(e.Args[0]))
				}
				return false
			}
		}
		if tv, ok := st.pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			if bt, ok := tv.Type.Underlying().(*types.Basic); ok && bt.Info()&types.IsInteger != 0 {
				return st.tainted(e.Args[0], s)
			}
		}
		return false
	case *ast.SelectorExpr:
		// Integer .Size / .Bytes fields: the pooled Transfer/Payload
		// byte-count shape.
		if e.Sel.Name != "Size" && e.Sel.Name != "Bytes" {
			return false
		}
		t := st.pass.Info.TypeOf(e)
		if t == nil {
			return false
		}
		bt, ok := t.Underlying().(*types.Basic)
		return ok && bt.Info()&types.IsInteger != 0
	}
	return false
}

// isNamedType reports whether t is the named type pkgName.name
// (package matched by NAME so fixture stubs work).
func isNamedType(t types.Type, pkgName, name string) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == name && named.Obj().Pkg().Name() == pkgName
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
