package analyzer

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MemoSafe enforces the cache-safety contract of memoized result
// types. The tuner's memo cache (internal/tune) hands one stored value
// to every warm caller, keeps it alive for the life of the process and
// round-trips it through an on-disk JSON store — so a type marked
//
//	//collvet:memoized
//
// must be transitively plain data: basic values, structs and arrays of
// them, nothing more. Two failure families are flagged:
//
//   - Live simulator handles — *sim.Kernel, *sim.Proc (the kernelshare
//     single-owner types) and the pooled *mpi.Request /
//     *simnet.Transfer (recycled by their pools). A memoized value
//     holding one pins freed protocol state past its simulation, and a
//     warm cache hit would resurrect a handle whose pool slot has long
//     been recycled by a different run.
//   - Reference and behavior types — pointers, slices, maps, funcs,
//     channels, interfaces. Every warm hit aliases the one cached
//     value, so any reachable mutable cell lets one caller corrupt
//     every later caller's "bit-identical" answer; funcs/chans/
//     interfaces additionally cannot round-trip through the JSON
//     store at all.
//
// The walk is transitive through named types, struct fields and array
// elements, including fields declared in other packages.
var MemoSafe = &Analyzer{
	Name: "memosafe",
	Doc:  "flag //collvet:memoized types that are not transitively plain data (live simulator handles, pointers, funcs, chans, ...)",
	Run:  runMemoSafe,
}

// memoMarker is the opt-in comment that puts a type under this
// analyzer's contract.
const memoMarker = "//collvet:memoized"

// hasMemoMarker reports whether a doc comment group carries the
// marker on a line of its own.
func hasMemoMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == memoMarker {
			return true
		}
	}
	return false
}

func runMemoSafe(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				// The marker sits on the declaration (gd.Doc for the
				// common single-spec form, ts.Doc inside a block).
				if !hasMemoMarker(gd.Doc) && !hasMemoMarker(ts.Doc) {
					continue
				}
				obj := pass.Info.Defs[ts.Name]
				if obj == nil {
					continue
				}
				w := memoWalker{pass: pass, pos: ts.Name.Pos(), root: ts.Name.Name}
				w.check(obj.Type(), ts.Name.Name)
			}
		}
	}
	return nil
}

// memoWalker reports every non-plain-data component reachable from one
// marked type. seen breaks cycles and de-duplicates diagnostics for
// repeated named types.
type memoWalker struct {
	pass *Pass
	pos  token.Pos
	root string
	seen []types.Type
}

// check walks t (reached via the field path) and reports violations at
// the marked declaration, naming the path so a transitive finding in
// another package's struct is still actionable.
func (w *memoWalker) check(t types.Type, path string) {
	for _, s := range w.seen {
		if types.Identical(s, t) {
			return
		}
	}
	w.seen = append(w.seen, t)

	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			w.report(path, t, "an unsafe.Pointer")
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			w.check(f.Type(), path+"."+f.Name())
		}
	case *types.Array:
		w.check(u.Elem(), path+"[...]")
	case *types.Pointer:
		if label, ok := liveHandleLabel(t); ok {
			w.report(path, t, fmt.Sprintf("a live simulator handle (%s)", label))
			return
		}
		w.report(path, t, "a pointer")
	case *types.Slice:
		w.report(path, t, "a slice")
	case *types.Map:
		w.report(path, t, "a map")
	case *types.Chan:
		w.report(path, t, "a channel")
	case *types.Signature:
		w.report(path, t, "a func value")
	case *types.Interface:
		w.report(path, t, "an interface")
	default:
		w.report(path, t, "a non-plain-data type")
	}
}

func (w *memoWalker) report(path string, t types.Type, what string) {
	w.pass.Reportf(w.pos,
		"memoized type %s holds %s at %s (%s); //collvet:memoized types must be transitively plain data — cached values outlive every simulation and are shared by all warm callers",
		w.root, what, path, types.TypeString(t, nil))
}

// liveHandleLabel names t if it is one of the simulator-owned handle
// types: the kernelshare single-owner types (*sim.Kernel, *sim.Proc)
// and the pooled types (*mpi.Request, *mpi.msg, *simnet.Transfer).
// Matching is by package NAME, as in kernelshare, so the testdata
// stubs behave like the real packages.
func liveHandleLabel(t types.Type) (string, bool) {
	if isKernelOwnedType(t) || isPooledHandle(t) {
		return typeLabel(t), true
	}
	return "", false
}

// isPooledHandle reports whether t points to a type whose objects a
// sim.Pool recycles and that leaves its package as a handle.
func isPooledHandle(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	e := ptr.Elem()
	return isNamedType(e, "mpi", "Request") || isNamedType(e, "mpi", "msg") || isNamedType(e, "simnet", "Transfer")
}
