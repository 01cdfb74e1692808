package analyzer

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags range loops over maps, inside the deterministic zone,
// whose body depends on Go's randomized map iteration order. Two kinds
// of hazard are reported:
//
//   - order-dependent CALLS: scheduling an event, emitting a
//     probe/trace record, or initiating an MPI/network operation from
//     inside `range m` bakes the iteration order into the event queue,
//     and therefore into the gseq sequence and the pinned trace
//     digests the reproduction depends on. The check looks one call
//     level deep: a loop body invoking a same-package helper that
//     schedules, emits, or appends to non-local state (a plan arena, a
//     CSR buffer) is flagged even though the hazard is not textually
//     inside the loop.
//   - order-dependent WRITES to variables declared outside the loop,
//     with values computed inside it: an append (unless the slice is
//     sorted after the loop, the collect-then-sort idiom), a
//     last-writer-wins store, and string concatenation. Writes that
//     commute are exempt: map inserts, writes indexed by a loop
//     variable (distinct cells), and numeric accumulation.
//
// The loop extent is computed on the CFG (cfg.go): all blocks of the
// natural loop of the range head, so hazards in nested ifs, switches
// and inner loops are found without re-walking the syntax tree; "sorted
// after the loop" means a sort/slices call on a path from the append.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid scheduling, emission, arena appends and order-dependent writes driven by map iteration order in deterministic packages",
	Run:  runMapOrder,
}

// mapOrderHazards lists, per package NAME, the methods that push onto
// an ordered stream: the DES event queue (sim), the probe/trace event
// streams, and the protocol initiators that schedule under the hood.
// Commutative sinks (probe counter Add/Merge) are deliberately absent.
var mapOrderHazards = map[string]map[string]bool{
	"sim": {
		"At": true, "After": true, "Spawn": true, "SpawnAt": true,
		"Complete": true, "CompleteAfter": true,
		"Then": true,
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
		members := cfg.LoopMembers(loop)
		inner := loopDefs(pass, members)
		for _, b := range members {
			for i, n := range b.Nodes {
				if n == loop.Rng.X || n == loop.Rng.Key || n == loop.Rng.Value {
					continue // the range header itself
				}
				ast.Inspect(n, func(x ast.Node) bool {
					if asg, ok := x.(*ast.AssignStmt); ok {
						checkMapOrderWrite(pass, asg, inner, b, i, report)
						return true
					}
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

// loopDefs returns the objects declared inside a loop (its range
// key/value included): values computed from them differ per iteration.
func loopDefs(pass *Pass, members []*Block) map[types.Object]bool {
	inner := map[types.Object]bool{}
	for _, b := range members {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil {
						inner[obj] = true
					}
				}
				return true
			})
		}
	}
	return inner
}

// checkMapOrderWrite reports asg, inside a range over a map, when it
// writes a loop-dependent value to a variable declared outside the
// loop in a way whose result depends on iteration order. asg is in
// node i of block b, where the search for a later sort starts.
func checkMapOrderWrite(pass *Pass, asg *ast.AssignStmt, inner map[types.Object]bool, b *Block, i int, report func(ast.Node, string, ...interface{})) {
	if asg.Tok == token.DEFINE {
		return
	}
	uses := func(e ast.Expr) bool {
		used := false
		if e != nil {
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && inner[pass.Info.Uses[id]] {
					used = true
				}
				return !used
			})
		}
		return used
	}
	for i, lhs := range asg.Lhs {
		id := rootIdent(lhs)
		if id == nil {
			continue
		}
		root := identObj(pass.Info, id)
		if root == nil || inner[root] {
			continue
		}
		var rhs ast.Expr
		if i < len(asg.Rhs) {
			rhs = asg.Rhs[i]
		} else if len(asg.Rhs) == 1 {
			rhs = asg.Rhs[0]
		}
		if asg.Tok != token.ASSIGN {
			// Op-assign: numeric accumulation commutes; string
			// concatenation does not.
			if asg.Tok == token.ADD_ASSIGN && uses(rhs) {
				if bt, ok := pass.Info.TypeOf(lhs).Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 {
					report(asg, "string concatenation onto %q inside range over map depends on iteration order", root.Name())
				}
			}
			continue
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinCall(pass.Info, call, "append") && uses(call) {
			if !sortedLater(pass, b, i, root) {
				report(asg, "append to %q inside range over map: element order depends on map iteration order", root.Name())
			}
			continue
		}
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if bt := pass.Info.TypeOf(idx.X); bt != nil {
				if _, isMap := bt.Underlying().(*types.Map); isMap {
					continue // map inserts commute
				}
			}
			if uses(idx.Index) {
				continue // out[k] = v writes distinct cells
			}
		}
		if uses(rhs) {
			report(asg, "write to %q inside range over map depends on iteration order (last writer wins nondeterministically)", root.Name())
		}
	}
}

// sortedLater reports whether obj is passed to a sort/slices function
// on a path from node i of block b: the collect-then-sort idiom
// re-establishes a deterministic order.
func sortedLater(pass *Pass, b *Block, i int, obj types.Object) bool {
	seen := map[*Block]bool{}
	for stack := []*Block{b}; len(stack) > 0; i = 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range b.Nodes[i:] {
			if sortsObj(pass, n, obj) {
				return true
			}
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// sortsObj reports whether n contains a sort/slices call taking obj.
func sortsObj(pass *Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || (fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices") {
			return true
		}
		for _, a := range call.Args {
			if id := rootIdent(a); id != nil && identObj(pass.Info, id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
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
				if !ok || !isBuiltinCall(pass.Info, call, "append") || i >= len(x.Lhs) {
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
