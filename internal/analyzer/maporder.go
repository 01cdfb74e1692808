package analyzer

import (
	"go/ast"
	"go/types"
)

// MapOrder flags range loops over maps, inside the deterministic zone,
// whose body feeds the simulator's ordered streams: scheduling an
// event, emitting a probe/trace record, or initiating an MPI/network
// operation from inside `range m` bakes Go's randomized map iteration
// order into the event queue — and therefore into the gseq sequence
// and the pinned trace digests the reproduction depends on.
//
// It complements wallclock's map-range rule, which owns order-dependent
// WRITES (appends, last-writer-wins stores): maporder owns order-
// dependent CALLS, and looks one call level deep — a loop body invoking
// a same-package helper that schedules, emits, or appends to non-local
// state (a plan arena, a CSR buffer) is flagged even though the hazard
// is not textually inside the loop.
//
// The loop extent is computed on the CFG (cfg.go): all blocks of the
// natural loop of the range head, so hazards in nested ifs, switches
// and inner loops are found without re-walking the syntax tree.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid scheduling, emission and arena appends driven by map iteration order in deterministic packages",
	Run:  runMapOrder,
}

// mapOrderHazards lists, per package NAME, the methods that push onto
// an ordered stream: the DES event queue (sim), the probe/trace event
// streams, and the protocol initiators that schedule under the hood.
// Commutative sinks (probe counter Add/Merge) are deliberately absent.
var mapOrderHazards = map[string]map[string]bool{
	"sim": {
		"At": true, "After": true, "Spawn": true, "SpawnAt": true,
		"ScheduleRemote": true, "Complete": true, "CompleteAfter": true,
		"OnDone": true, "Then": true,
	},
	"probe": {"Emit": true},
	"trace": {"Record": true},
	"mpi": {
		"Send": true, "Recv": true, "Isend": true, "Irecv": true,
		"Put": true, "Barrier": true, "Compute": true,
	},
	"simnet": {"Send": true, "SendFlow": true},
	"simfs":  {"Write": true, "AIOWrite": true},
}

// hazardCall reports whether call invokes one of the ordered-stream
// sinks, returning a printable name.
func hazardCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	set, ok := mapOrderHazards[funcPkgName(fn)]
	if !ok || !methodIn(fn, funcPkgName(fn), set) {
		return "", false
	}
	return funcPkgName(fn) + "." + fn.Name(), true
}

func runMapOrder(pass *Pass) error {
	if !inDeterministicZone(pass.Pkg.Path()) {
		return nil
	}
	// One-level call expansion needs the package's own declarations.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, fb := range funcDecls(pass.Files) {
		if obj, ok := pass.Info.Defs[fb.decl.Name].(*types.Func); ok {
			decls[obj] = fb.decl
		}
	}
	seen := map[string]bool{} // dedup across nested loops
	for _, fb := range funcDecls(pass.Files) {
		checkMapOrderBody(pass, fb.decl.Body, decls, seen)
	}
	return nil
}

func checkMapOrderBody(pass *Pass, body *ast.BlockStmt, decls map[*types.Func]*ast.FuncDecl, seen map[string]bool) {
	if body == nil {
		return
	}
	cfg := NewCFG(body)
	report := func(pos ast.Node, format string, args ...interface{}) {
		p := pass.Fset.Position(pos.Pos())
		key := p.String() + format
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(pos.Pos(), format, args...)
	}
	for _, loop := range cfg.Loops {
		t := pass.Info.TypeOf(loop.Rng.X)
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			continue
		}
		for _, b := range cfg.LoopMembers(loop) {
			for _, n := range b.Nodes {
				if n == loop.Rng.X || n == loop.Rng.Key || n == loop.Rng.Value {
					continue // the range header itself
				}
				ast.Inspect(n, func(x ast.Node) bool {
					call, ok := x.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name, bad := hazardCall(pass.Info, call); bad {
						report(call,
							"call to %s inside range over map: event order follows map iteration order; collect and sort the keys first",
							name)
						return true
					}
					// One level deep: a same-package helper that
					// schedules/emits or appends to non-local state.
					fn := calleeFunc(pass.Info, call)
					if fd, ok := decls[fn]; ok {
						if name, via := calleeOrderHazard(pass, fd); via {
							report(call,
								"call to %s inside range over map reaches %s: event order follows map iteration order; collect and sort the keys first",
								fn.Name(), name)
						}
					}
					return true
				})
			}
		}
	}
	// goto-bearing bodies: cfg.Loops is still complete for the loops the
	// builder lowered before bailing, and LoopMembers degrades to the
	// blocks built so far — acceptable for a conservative checker.

	// A range loop inside a closure is invisible to the enclosing CFG
	// (the FuncLit is one atomic node): lower each closure body too.
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkMapOrderBody(pass, fl.Body, decls, seen)
			return false
		}
		return true
	})
}

// calleeOrderHazard reports whether the body of fd (a same-package
// helper invoked from inside a map-range loop) contains an ordered-
// stream hazard: a direct hazard call, or an append whose destination
// outlives the helper (receiver/param field, package-level slice) —
// the plan/CSR arena shape.
func calleeOrderHazard(pass *Pass, fd *ast.FuncDecl) (string, bool) {
	var name string
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		if name != "" {
			return false
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			if n, bad := hazardCall(pass.Info, x); bad {
				name = n
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok {
					continue
				}
				if b, ok := pass.Info.Uses[fid].(*types.Builtin); !ok || b.Name() != "append" {
					continue
				}
				if i >= len(x.Lhs) {
					continue
				}
				if lhsOutlivesFunc(pass, fd, x.Lhs[i]) {
					name = "an append to " + describeLHS(x.Lhs[i])
					return false
				}
			}
		}
		return true
	})
	return name, name != ""
}

// lhsOutlivesFunc reports whether the assignment destination survives
// the helper: a selector chain (receiver or param field — the arena
// case) or a package-level variable. Plain locals do not.
func lhsOutlivesFunc(pass *Pass, fd *ast.FuncDecl, lhs ast.Expr) bool {
	if _, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		return true
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	obj := identObj(pass.Info, id)
	if obj == nil {
		return false
	}
	// Package-scope variable?
	return obj.Parent() == pass.Pkg.Scope()
}

// describeLHS renders an assignment destination for the diagnostic.
func describeLHS(lhs ast.Expr) string {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name + "." + e.Sel.Name
		}
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return "shared state"
}
