package analyzer

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
)

// FencePair checks local balance of RMA synchronisation epochs. The
// one-sided shuffle variants rely on every Put being enclosed in an
// epoch that later forces remote completion: fence…fence, lock…unlock
// or start…complete. An unpaired WinLock leaves the target's passive
// lock held forever (every later origin queues behind it); a Put issued
// after the epoch closed races the next cycle's buffer reuse.
//
// The check is intra-procedural and deliberately one-sided: functions
// that only issue Puts (epoch managed by the caller, as in the
// collective engine's putOp) are not flagged. Flagged are:
//
//   - WinLock with no later WinUnlock for the same (window, target) in
//     the same function, and WinUnlock with no earlier WinLock;
//   - WinStart with no later WinComplete for the same window, and vice
//     versa;
//   - a Put to a (window, target) issued after that pair's lock epoch
//     closed (lock-discipline functions only);
//   - a Put on a window issued after the function's last WinFence on
//     that window, in functions that fence that window (the closing
//     fence that would complete the Put is missing).
//
// Windows and targets are keyed by expression text: the collective
// engine addresses windows through stable locals (ex.wins[slot], tgt),
// which this resolves exactly.
var FencePair = &Analyzer{
	Name: "fencepair",
	Doc:  "flag unpaired RMA epochs (lock/unlock, start/complete) and Puts outside their epoch",
	Run:  runFencePair,
}

// rmaCall is one epoch-relevant call in source order.
type rmaCall struct {
	call *ast.CallExpr
	name string // Put, WinFence, WinLock, WinUnlock, WinStart, WinComplete
	win  string // window argument, by expression text
	tgt  string // target argument text (Put, WinLock, WinUnlock)
}

var rmaCallNames = map[string]bool{
	"Put": true, "WinFence": true, "WinLock": true, "WinUnlock": true,
	"WinStart": true, "WinComplete": true,
}

func runFencePair(pass *Pass) error {
	for _, fb := range funcDecls(pass.Files) {
		checkEpochs(pass, fb.decl)
	}
	return nil
}

// exprText renders an expression compactly for identity matching.
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return buf.String()
}

func collectRMACalls(pass *Pass, decl *ast.FuncDecl) []rmaCall {
	var out []rmaCall
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || !rmaCallNames[fn.Name()] || funcPkgName(fn) != "mpi" {
			return true
		}
		rc := rmaCall{call: call, name: fn.Name()}
		if len(call.Args) > 0 {
			rc.win = exprText(pass.Fset, call.Args[0])
		}
		switch rc.name {
		case "Put":
			if len(call.Args) > 1 {
				rc.tgt = exprText(pass.Fset, call.Args[1])
			}
		case "WinLock":
			if len(call.Args) > 2 {
				rc.tgt = exprText(pass.Fset, call.Args[2])
			}
		case "WinUnlock":
			if len(call.Args) > 1 {
				rc.tgt = exprText(pass.Fset, call.Args[1])
			}
		}
		out = append(out, rc)
		return true
	})
	return out
}

func checkEpochs(pass *Pass, decl *ast.FuncDecl) {
	calls := collectRMACalls(pass, decl)
	if len(calls) == 0 {
		return
	}
	type pairKey struct{ win, tgt string }

	// Lock discipline: does this function lock each (win, tgt) at all?
	lockDepth := map[pairKey]int{}
	openLock := map[pairKey]*rmaCall{}
	usesLockOn := map[pairKey]bool{}
	for i := range calls {
		c := &calls[i]
		k := pairKey{c.win, c.tgt}
		switch c.name {
		case "WinLock":
			usesLockOn[k] = true
		}
	}
	startDepth := map[string]int{}
	openStart := map[string]*rmaCall{}
	lastFence := map[string]int{} // window text -> index of last WinFence
	fences := map[string]bool{}
	for i, c := range calls {
		if c.name == "WinFence" {
			lastFence[c.win] = i
			fences[c.win] = true
		}
	}

	for i := range calls {
		c := &calls[i]
		k := pairKey{c.win, c.tgt}
		switch c.name {
		case "WinLock":
			lockDepth[k]++
			openLock[k] = c
		case "WinUnlock":
			if lockDepth[k] == 0 {
				pass.Reportf(c.call.Pos(), "WinUnlock(%s, %s) without a matching WinLock in this function", c.win, c.tgt)
				continue
			}
			lockDepth[k]--
		case "WinStart":
			startDepth[c.win]++
			openStart[c.win] = c
		case "WinComplete":
			if startDepth[c.win] == 0 {
				pass.Reportf(c.call.Pos(), "WinComplete(%s) without a matching WinStart in this function", c.win)
				continue
			}
			startDepth[c.win]--
		case "Put":
			if usesLockOn[k] && lockDepth[k] == 0 {
				pass.Reportf(c.call.Pos(), "Put to (%s, %s) outside its lock epoch: the enclosing WinLock/WinUnlock pair has already closed", c.win, c.tgt)
			}
			if fences[c.win] && i > lastFence[c.win] {
				pass.Reportf(c.call.Pos(), "Put on %s after the final WinFence in this function: no closing fence completes it", c.win)
			}
		}
	}
	for k, d := range lockDepth {
		if d > 0 {
			c := openLock[k]
			pass.Reportf(c.call.Pos(), "WinLock(%s, %s) is never unlocked in this function: the target's passive lock stays held", k.win, k.tgt)
		}
	}
	for w, d := range startDepth {
		if d > 0 {
			c := openStart[w]
			pass.Reportf(c.call.Pos(), "WinStart(%s) without a matching WinComplete in this function", w)
		}
	}
}
