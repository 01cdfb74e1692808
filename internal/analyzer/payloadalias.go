package analyzer

import (
	"go/ast"
	"go/types"
)

// PayloadAlias flags mutation of a buffer that was handed to Isend or
// Put while the operation may still be in flight. MPI semantics forbid
// touching a send buffer between initiation and completion; in this
// simulator the hazard is concrete for one-sided transfers — Put
// captures the payload slice and copies it into the target window only
// when the simulated network delivers, so a mutation before the closing
// WinFence/WinUnlock corrupts the bytes that arrive. (Isend snapshots
// its payload at call time, which makes the same mistake latent rather
// than fatal here — but it is still a contract violation that breaks on
// any real MPI, so it is flagged identically.)
//
// The analysis is straight-line per function: a buffer becomes
// "in flight" when it appears in a payload argument (directly, through
// mpi.Bytes, or via a local payload variable built with mpi.Bytes), and
// is released by the completion calls Wait/WaitFutures/WinFence/
// WinUnlock/WinComplete. Writes to an in-flight buffer (element stores,
// copy into it, append reassignment) are reported. The lifetime of the
// pooled handles themselves is poolpath's concern.
var PayloadAlias = &Analyzer{
	Name: "payloadalias",
	Doc:  "flag writes to in-flight payload buffers",
	Run:  runPayloadAlias,
}

// payloadCompleters end all in-flight epochs in this straight-line
// model.
var payloadCompleters = map[string]bool{
	"Wait": true, "WaitFutures": true,
	"WinFence": true, "WinUnlock": true, "WinComplete": true,
	"Send": true, "Recv": true, // blocking: completes on return
}

func runPayloadAlias(pass *Pass) error {
	for _, fb := range funcDecls(pass.Files) {
		checkPayloadAliasing(pass, fb.decl)
	}
	return nil
}

// bufferRootOf resolves the backing-buffer object of a payload-ish
// expression: Bytes(buf), Bytes(buf[i:j]), a []byte expression, or a
// local payload variable previously bound via payloadBindings.
func bufferRootOf(pass *Pass, e ast.Expr, payloadBindings map[types.Object]types.Object) types.Object {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		fn := calleeFunc(pass.Info, call)
		if fn != nil && fn.Name() == "Bytes" && funcPkgName(fn) == "mpi" && len(call.Args) == 1 {
			return sliceRootObj(pass, call.Args[0])
		}
		return nil
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := identObj(pass.Info, id); obj != nil {
			if buf, ok := payloadBindings[obj]; ok {
				return buf
			}
		}
	}
	return sliceRootObj(pass, e)
}

// sliceRootObj returns the root object of a byte-slice expression
// (buf, buf[i:j], data — not composite sub-expressions).
func sliceRootObj(pass *Pass, e ast.Expr) types.Object {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return nil
	}
	if s, ok := t.Underlying().(*types.Slice); !ok || !isByte(s.Elem()) {
		return nil
	}
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	return identObj(pass.Info, id)
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// stmtEvent records one in-flight buffer and the operation holding it.
type stmtEvent struct {
	node ast.Node
	buf  types.Object
	op   string // Isend or Put
}

func checkPayloadAliasing(pass *Pass, decl *ast.FuncDecl) {
	// First pass: payload-variable bindings pl := mpi.Bytes(buf).
	payloadBindings := map[types.Object]types.Object{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Name() != "Bytes" || funcPkgName(fn) != "mpi" || len(call.Args) != 1 {
				continue
			}
			lhs, ok := asg.Lhs[i].(*ast.Ident)
			if !ok || lhs.Name == "_" {
				continue
			}
			plObj := identObj(pass.Info, lhs)
			bufObj := sliceRootObj(pass, call.Args[0])
			if plObj != nil && bufObj != nil {
				payloadBindings[plObj] = bufObj
			}
		}
		return true
	})

	// Second pass: linear scan of events in source order. This is a
	// straight-line approximation — control flow is flattened — which is
	// exactly the shape of the collective engine's epoch code.
	inflight := map[types.Object]*stmtEvent{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Builtin copy(dst, ...) writing into an in-flight buffer.
			// Checked first: calleeFunc is nil for builtins.
			if fid, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[fid].(*types.Builtin); ok && b.Name() == "copy" && len(n.Args) == 2 {
					if dst := sliceRootObj(pass, n.Args[0]); dst != nil {
						if ev, ok := inflight[dst]; ok {
							pass.Reportf(n.Pos(),
								"copy into %q while it is in flight: the buffer was handed to %s and the operation has not completed",
								dst.Name(), ev.op)
						}
					}
					return true
				}
			}
			fn := calleeFunc(pass.Info, n)
			if fn == nil {
				return true
			}
			switch {
			case (fn.Name() == "Isend" || fn.Name() == "Put") && funcPkgName(fn) == "mpi":
				var plArg ast.Expr
				if fn.Name() == "Isend" && len(n.Args) == 3 {
					plArg = n.Args[2]
				}
				if fn.Name() == "Put" && len(n.Args) == 4 {
					plArg = n.Args[3]
				}
				if plArg == nil {
					return true
				}
				if buf := bufferRootOf(pass, plArg, payloadBindings); buf != nil {
					ev := &stmtEvent{node: n, buf: buf, op: fn.Name()}
					inflight[buf] = ev
				}
			case payloadCompleters[fn.Name()] && (funcPkgName(fn) == "mpi" || funcPkgName(fn) == "sim"):
				// Coarse epoch close: all buffers complete.
				inflight = map[types.Object]*stmtEvent{}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				// Element store buf[i] = x or reslice-overwrite.
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if dst := sliceRootObj(pass, idx.X); dst != nil {
						if ev, ok := inflight[dst]; ok {
							pass.Reportf(n.Pos(),
								"write to %q while it is in flight: the buffer was handed to %s and the operation has not completed",
								dst.Name(), ev.op)
						}
					}
				}
			}
		}
		return true
	})
}
