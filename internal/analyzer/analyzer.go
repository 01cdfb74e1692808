// Package analyzer implements collvet, a static-analysis suite that
// enforces the simulator's correctness invariants at compile time. The
// reproduced paper's measurements depend on protocol-level properties of
// the simulated MPI progress engine — a leaked request, a wall-clock
// call inside the deterministic kernel, or a map-order dependency
// silently corrupts the overlap numbers the reproduction exists to
// produce — so the invariants are checked mechanically on every tree.
// Rules whose state lives at run time are checked there instead: RMA
// epoch balance by mpi.Window on every call, blocking from kernel
// context by sim.Proc.
//
// The package is built only on the standard library (go/ast, go/parser,
// go/types and a `go list`-based package enumerator); the module stays
// dependency-free. The design deliberately mirrors a slimmed-down
// golang.org/x/tools/go/analysis: an Analyzer owns a Run function over a
// type-checked Pass and emits position-carrying Diagnostics.
//
// The shipped analyzers and the invariant each enforces:
//
//	wallclock            no wall-clock time or global math/rand inside
//	                     the deterministic simulator packages
//	payloadalias         a buffer handed to Isend/Put is not mutated
//	                     before the operation completes
//	kernelshare          no *sim.Kernel, *sim.Proc or *rand.Rand crosses
//	                     a goroutine boundary outside the kernel (the
//	                     parallel sweep runner's one-kernel-per-worker
//	                     rule)
//	maporder             no trace/probe emission, event scheduling,
//	                     plan-arena append or order-dependent write
//	                     (unsorted append, last-writer-wins store,
//	                     string concatenation) inside a range over a map
//	                     in the deterministic zone (iteration order is
//	                     randomized per process)
//	poolpath             pooled mpi.Request and mpi.msg handles are
//	                     released on every path, exactly once, and never
//	                     used after release; a dropped Isend/Irecv result
//	                     is a leak (MPI progress is pull-based: an
//	                     unwaited request is lost protocol state); a lent
//	                     simnet.Transfer is not kept past its sending
//	                     event (path-sensitive over the CFG)
//	simtime              no sim.Time <-> time.Duration casts and no raw
//	                     byte count cast to sim.Time without a cost
//	                     scale inside the deterministic zone
//	lookahead            no ScheduleRemote with a statically-known delta
//	                     below the partition lookahead, and no cross-LP
//	                     kernel access from inside a remote callback
//	memosafe             a type marked //collvet:memoized (a cached,
//	                     process-outliving, shared-by-all-warm-callers
//	                     result) is transitively plain data: no live
//	                     simulator handles, pointers, funcs or channels
//
// A human can overrule one finding with an audited waiver —
// `//collvet:ignore <analyzer> -- <reason>` on the diagnostic's line or
// the line above (see suppress.go); a waiver without a reason is itself
// a finding.
package analyzer

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns the full collvet suite in stable order. The first three
// are per-node syntactic matchers; the next four are flow-sensitive
// analyzers over the CFG/dataflow core (cfg.go, dataflow.go); memosafe
// is a type-shape check over marked declarations.
func All() []*Analyzer {
	return []*Analyzer{
		WallClock,
		PayloadAlias,
		KernelShare,
		MapOrder,
		PoolPath,
		SimTime,
		Lookahead,
		MemoSafe,
	}
}

// ByName resolves a comma-free analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunStats describes one Run: wall time per analyzer (summed over
// packages), the number of diagnostics dropped by //collvet:ignore
// suppressions, and — for RunCached — how many packages were served
// from the result cache versus analyzed fresh.
type RunStats struct {
	Elapsed     map[string]time.Duration
	Suppressed  int
	CacheHits   int
	CacheMisses int
}

// Run applies each analyzer to each package, applies //collvet:ignore
// suppressions, and returns the surviving diagnostics sorted by
// position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunWithStats(pkgs, analyzers)
	return diags, err
}

// RunWithStats is Run plus per-analyzer timing and suppression counts.
func RunWithStats(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, RunStats, error) {
	stats := RunStats{Elapsed: map[string]time.Duration{}}
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, suppressed, err := runPackage(pkg, analyzers, stats.Elapsed)
		if err != nil {
			return nil, stats, err
		}
		stats.Suppressed += suppressed
		all = append(all, diags...)
	}
	sortDiagnostics(all)
	return all, stats, nil
}

// runPackage analyzes one package and resolves its suppression
// comments (which can only cover diagnostics in the package's own
// files, so per-package filtering is exact). elapsed accumulates
// per-analyzer wall time.
func runPackage(pkg *Package, analyzers []*Analyzer, elapsed map[string]time.Duration) ([]Diagnostic, int, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		start := time.Now()
		if err := a.Run(pass); err != nil {
			return nil, 0, fmt.Errorf("%s: %s: %v", pkg.Path, a.Name, err)
		}
		elapsed[a.Name] += time.Since(start)
	}
	kept, suppressed := applySuppressions([]*Package{pkg}, diags)
	return kept, suppressed, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---- shared type-resolution helpers ----

// calleeFunc returns the *types.Func statically invoked by call (a
// package function or a method), or nil for dynamic/builtin calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call (time.Now) or conversion.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcPkgName returns the name of the package declaring fn ("" when
// unknown, e.g. builtins).
func funcPkgName(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Name()
}

// isMethod reports whether fn is a method named name declared in a
// package named pkgName. Matching by package *name* rather than full
// import path lets the fixture stubs under testdata/ stand in for the
// real collio/internal packages.
func isMethod(fn *types.Func, pkgName, name string) bool {
	if fn == nil || fn.Name() != name || funcPkgName(fn) != pkgName {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// methodIn reports whether fn is a method declared in package pkgName
// whose name is in set.
func methodIn(fn *types.Func, pkgName string, set map[string]bool) bool {
	if fn == nil || !set[fn.Name()] || funcPkgName(fn) != pkgName {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isBuiltinCall reports whether call invokes the builtin named name.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// rootIdent returns the leftmost identifier of an lvalue-ish expression
// chain (x, x[i], x.f, x[i:j], *x, (x)), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// identObj resolves an identifier to its object via Uses or Defs.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// funcBody pairs a declared function or method with its name. Function
// literals nested inside a declaration are analyzed as part of the
// enclosing body.
type funcBody struct {
	name string
	decl *ast.FuncDecl
}

func funcDecls(files []*ast.File) []funcBody {
	var out []funcBody
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, funcBody{name: fd.Name.Name, decl: fd})
			}
		}
	}
	return out
}

// buildParents records each node's syntactic parent within root.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
