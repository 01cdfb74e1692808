// Fixtures for honored //collvet:ignore suppressions, covering a
// syntactic analyzer (wallclock) and a CFG-based one (maporder) in the
// same deterministic-zone package (the import path contains
// internal/fcoll). Malformed suppressions live in the malformed
// subpackage (they are asserted programmatically: a malformed comment's
// diagnostic lands on the comment's own line, where no want comment can
// sit).
package fcoll

import (
	"time"

	"sim"
)

// Trailing-comment form: the waiver sits on the diagnostic's own line.
// It names two analyzers, of which only maporder reports here.
func suppressedMapSchedule(k *sim.Kernel, delays map[int]sim.Time) {
	for _, d := range delays {
		k.After(d, func() {}) //collvet:ignore wallclock,maporder -- fixture: every entry schedules the same no-op, so the order cannot show
	}
}

// Full-line form: the waiver sits on the line above the diagnostic.
func suppressedClockLineAbove() time.Time {
	//collvet:ignore wallclock -- fixture: a host timestamp for a log line that never reaches simulated state
	return time.Now()
}

// An unrelated finding in the same package still fires: suppression is
// per-line, not per-file.
func unsuppressedClock() time.Time {
	return time.Now() // want `wall-clock call time.Now`
}
