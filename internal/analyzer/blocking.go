package analyzer

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BlockingOutsideRank flags blocking MPI/process calls made from kernel
// event-callback context. The DES kernel guarantees that at most one
// entity runs at a time; callbacks registered with Future.OnDone,
// Kernel.After or Kernel.At run inline in the kernel goroutine, not on
// any simulated process. A blocking call there (Rank.Wait, Barrier, a
// collective, Proc.Sleep — anything that parks the "current process")
// has no process to park: it deadlocks the scheduler or corrupts the
// dispatch/yield coroutine switch. Only code reachable from a rank body
// (a function run on a Proc via Spawn/Launch) may block.
//
// Detection: function literals (and bound method values) passed to
// OnDone/After/At are event context, and so is the method a
// sim.NewEvent binds (an Event only ever fires in kernel context); the
// analyzer walks them, following same-package static calls
// transitively, and reports any path to a blocking call. Literals
// passed to Spawn/SpawnAt/Launch start a fresh process and are exempt.
var BlockingOutsideRank = &Analyzer{
	Name: "blockingoutsiderank",
	Doc:  "flag blocking MPI/process calls inside kernel event callbacks (OnDone/After/At)",
	Run:  runBlockingOutsideRank,
}

// eventRegistrars schedule their function argument in kernel context:
// name -> index of the callback argument. All are methods except
// NewEvent, the package function that binds a pooled object's Event.
var eventRegistrars = map[string]int{
	"OnDone":   0, // sim.Future
	"After":    1, // sim.Kernel
	"At":       1, // sim.Kernel
	"NewEvent": 1, // sim.NewEvent(obj, (*T).method)
}

// processSpawners run their function argument on a fresh simulated
// process (a legitimate blocking context), so the analyzer does not
// descend into their arguments.
var processSpawners = map[string]bool{
	"Spawn": true, "SpawnAt": true, "Launch": true,
}

// blockingMPIMethods are mpi-package methods that park the calling
// process. Every MPI entry point that charges CPU time through
// Proc.Sleep blocks — including the "non-blocking" Isend/Irecv, whose
// call itself sleeps for its software overhead. TestRankMethodCensus
// holds every exported *mpi.Rank method to this list or to
// nonBlockingRankMethods.
var blockingMPIMethods = map[string]bool{
	"Wait": true, "WaitFutures": true, "WaitAnyFuture": true,
	"Send": true, "Recv": true, "Isend": true, "Irecv": true,
	"Barrier": true, "AllreduceSync": true, "AllgathervSync": true,
	"AlltoallSync": true, "AlltoallSyncAmong": true, "Collective": true,
	"Put": true, "WinAllocate": true, "WinFence": true,
	"WinLock": true, "WinUnlock": true,
	"WinPost": true, "WinStart": true, "WinComplete": true, "WinWait": true,
	"Compute": true,
}

// blockingProcMethods are sim-package methods that park a process.
var blockingProcMethods = map[string]bool{
	"Wait": true, "WaitAll": true, "WaitAny": true,
	"Sleep": true, "Yield": true,
}

// isBlockingCall reports whether fn is a blocking MPI or process call.
func isBlockingCall(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	switch funcPkgName(fn) {
	case "mpi":
		return methodIn(fn, "mpi", blockingMPIMethods)
	case "sim":
		return methodIn(fn, "sim", blockingProcMethods)
	}
	return false
}

// isSpawnerCall reports whether fn starts a fresh simulated process.
func isSpawnerCall(fn *types.Func) bool {
	if fn == nil || !processSpawners[fn.Name()] {
		return false
	}
	p := funcPkgName(fn)
	return p == "sim" || p == "mpi"
}

func runBlockingOutsideRank(pass *Pass) error {
	// Bodies of package-level declared functions and methods, for
	// transitive same-package descent.
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, fb := range funcDecls(pass.Files) {
		if obj, ok := pass.Info.Defs[fb.decl.Name].(*types.Func); ok {
			bodies[obj] = fb.decl
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			argIdx, ok := eventRegistrarCall(fn)
			if !ok || argIdx >= len(call.Args) {
				return true
			}
			switch cb := ast.Unparen(call.Args[argIdx]).(type) {
			case *ast.FuncLit:
				walkEventContext(pass, bodies, cb.Body, map[*types.Func]bool{})
			default:
				// Bound method value (req.fut.Complete) or function
				// value: blocking when the referenced function blocks.
				target := valueFunc(pass.Info, call.Args[argIdx])
				if isBlockingCall(target) {
					pass.Reportf(call.Args[argIdx].Pos(),
						"blocking call %s.%s registered as a kernel event callback; it would deadlock the DES scheduler",
						funcPkgName(target), target.Name())
				} else if decl := bodies[target]; decl != nil {
					reportTransitiveBlocking(pass, bodies, decl, call.Args[argIdx].Pos(), target,
						map[*types.Func]bool{target: true})
				}
			}
			return true
		})
	}
	return nil
}

// valueFunc resolves a function-valued expression to its static
// *types.Func, or nil.
func valueFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// eventRegistrarCall reports whether fn registers a kernel event
// callback and at which argument index the callback sits.
func eventRegistrarCall(fn *types.Func) (int, bool) {
	if fn == nil {
		return 0, false
	}
	idx, ok := eventRegistrars[fn.Name()]
	if !ok || funcPkgName(fn) != "sim" {
		return 0, false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok || (sig.Recv() == nil) != (fn.Name() == "NewEvent") {
		return 0, false
	}
	return idx, true
}

// walkEventContext scans an event-callback body for blocking calls,
// descending transitively into same-package callees. Nested event
// registrations are skipped here: the file-level walk visits each
// registered callback exactly once.
func walkEventContext(pass *Pass, bodies map[*types.Func]*ast.FuncDecl, body ast.Node, visited map[*types.Func]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		if isSpawnerCall(fn) {
			return false // fresh process: its body may block
		}
		if _, reg := eventRegistrarCall(fn); reg {
			return false // nested callback: handled by the file walk
		}
		if isBlockingCall(fn) {
			pass.Reportf(call.Pos(),
				"blocking call %s.%s inside a kernel event callback; it would deadlock the DES scheduler",
				funcPkgName(fn), fn.Name())
			return true
		}
		if decl := bodies[fn]; decl != nil && !visited[fn] {
			visited[fn] = true
			reportTransitiveBlocking(pass, bodies, decl, call.Pos(), fn, visited)
		}
		return true
	})
}

// reportTransitiveBlocking reports at pos when via's body (transitively,
// same package) reaches a blocking call.
func reportTransitiveBlocking(pass *Pass, bodies map[*types.Func]*ast.FuncDecl, decl *ast.FuncDecl, pos token.Pos, via *types.Func, visited map[*types.Func]bool) {
	if target := findBlockingPath(pass, bodies, decl, visited); target != nil {
		pass.Reportf(pos,
			"%s, reached from a kernel event callback, calls blocking %s.%s; it would deadlock the DES scheduler",
			via.Name(), funcPkgName(target), target.Name())
	}
}

// findBlockingPath returns a blocking callee reachable from decl's body
// through same-package static calls, or nil.
func findBlockingPath(pass *Pass, bodies map[*types.Func]*ast.FuncDecl, decl *ast.FuncDecl, visited map[*types.Func]bool) *types.Func {
	var found *types.Func
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		if isSpawnerCall(fn) {
			return false
		}
		if _, reg := eventRegistrarCall(fn); reg {
			return false // deferred to event time, not on this path
		}
		if isBlockingCall(fn) {
			found = fn
			return false
		}
		if sub := bodies[fn]; sub != nil && !visited[fn] {
			visited[fn] = true
			if t := findBlockingPath(pass, bodies, sub, visited); t != nil {
				found = t
				return false
			}
		}
		return true
	})
	return found
}
