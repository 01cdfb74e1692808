package analyzer

import (
	"go/ast"
	"go/types"
)

// KernelShare enforces the one-kernel-per-worker rule of the parallel
// experiment harness: a *sim.Kernel, a *sim.Proc, or a *rand.Rand (in
// this module every random source is kernel-owned — wallclock already
// bans the global one) must never cross a goroutine boundary. The DES
// kernel is deliberately lock-free: it relies on at most one entity
// touching its clock, queue and random stream, and the pool in
// internal/exp builds a private kernel per job. Handing any of these to
// another goroutine — as a `go` call argument, captured by a spawned
// function literal, or sent on a channel — reintroduces exactly the
// shared mutable state the harness was designed to exclude, racing the
// event queue and silently breaking same-seed reproducibility.
//
// Packages named "sim" are exempt: the kernel's own coroutine machinery
// (Spawn's iter.Pull coroutine, resumed by dispatch from whichever
// goroutine runs the kernel) is the one place such sharing is part of
// the design.
var KernelShare = &Analyzer{
	Name: "kernelshare",
	Doc:  "flag *sim.Kernel, *sim.Proc or *rand.Rand crossing a goroutine boundary outside the kernel",
	Run:  runKernelShare,
}

// isKernelOwnedType reports whether t is one of the single-owner
// simulator types: *sim.Kernel, *sim.Proc or *rand.Rand (matched by
// package name for sim, so fixture stubs work; by import path for
// math/rand).
func isKernelOwnedType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	obj := named.Obj()
	switch obj.Pkg().Name() {
	case "sim":
		return obj.Name() == "Kernel" || obj.Name() == "Proc"
	case "rand":
		return obj.Pkg().Path() == "math/rand" && obj.Name() == "Rand"
	}
	return false
}

// typeLabel names a kernel-owned type for diagnostics.
func typeLabel(t types.Type) string {
	named := t.(*types.Pointer).Elem().(*types.Named).Obj()
	return "*" + named.Pkg().Name() + "." + named.Name()
}

func runKernelShare(pass *Pass) error {
	if pass.Pkg.Name() == "sim" {
		return nil
	}
	exprType := func(e ast.Expr) types.Type {
		if tv, ok := pass.Info.Types[e]; ok {
			return tv.Type
		}
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoCall(pass, n.Call, exprType)
			case *ast.SendStmt:
				if t := exprType(n.Value); t != nil && isKernelOwnedType(t) {
					pass.Reportf(n.Value.Pos(),
						"%s sent on a channel; kernel-owned state must stay on its worker goroutine", typeLabel(t))
				}
			}
			return true
		})
	}
	return nil
}

// checkGoCall inspects one `go f(args...)` statement: the callee
// receiver, every argument, and — for function literals — every
// captured identifier.
func checkGoCall(pass *Pass, call *ast.CallExpr, exprType func(ast.Expr) types.Type) {
	report := func(e ast.Expr, t types.Type, how string) {
		pass.Reportf(e.Pos(),
			"%s %s a goroutine; kernel-owned state must stay on its worker goroutine", typeLabel(t), how)
	}
	for _, arg := range call.Args {
		if t := exprType(arg); t != nil && isKernelOwnedType(t) {
			report(arg, t, "passed to")
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		// go p.Run() — the receiver crosses with the method value.
		if t := exprType(fun.X); t != nil && isKernelOwnedType(t) {
			report(fun.X, t, "is the receiver of a method started as")
		}
	case *ast.FuncLit:
		checkCaptures(pass, fun, report)
	}
}

// checkCaptures reports kernel-owned state reaching a function literal
// started as a goroutine: free variables (identifiers resolving to
// objects declared outside the literal).
func checkCaptures(pass *Pass, lit *ast.FuncLit, report func(ast.Expr, types.Type, string)) {
	declaredOutside := func(obj types.Object) bool {
		return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
	}
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || seen[obj] || !declaredOutside(obj) {
			return true
		}
		if isKernelOwnedType(obj.Type()) {
			seen[obj] = true
			report(id, obj.Type(), "captured by a function literal started as")
		}
		return true
	})
}
