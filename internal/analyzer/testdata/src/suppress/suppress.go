// Fixtures for honored //collvet:ignore suppressions, covering a
// legacy straight-line analyzer (payloadalias) and a CFG-based one
// (poolpath) in the same package. Malformed suppressions live in the
// sibling malformed package (they are asserted programmatically: a
// malformed comment's diagnostic lands on the comment's own line,
// where no want comment can sit).
package suppress

import (
	"simnet"
)

// Trailing-comment form: the waiver sits on the diagnostic's own line.
// It names two analyzers, of which only poolpath reports here.
func suppressedUseAfterRelease(net *simnet.Network) int64 {
	tr := net.Send(0, 1, 64)
	net.Release(tr)
	return tr.Size //collvet:ignore payloadalias,poolpath -- fixture: accounting reads the size back before the pool can recycle
}

// Full-line form: the waiver sits on the line above the diagnostic
// (poolpath reports the leak at the acquire site).
func suppressedLeakLineAbove(net *simnet.Network) {
	//collvet:ignore poolpath -- fixture: the reaper goroutine owns and releases this handle
	tr := net.Send(0, 1, 64)
	_ = tr.Size
}

// An unrelated finding in the same package still fires: suppression is
// per-line, not per-file.
func unsuppressedLeak(net *simnet.Network) {
	tr := net.Send(0, 1, 64) // want `pooled handle "tr" acquired here may reach return without Network\.Release`
	_ = tr.Size
}
