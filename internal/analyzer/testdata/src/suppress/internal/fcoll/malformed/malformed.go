// Fixtures for malformed and mismatched //collvet:ignore comments.
// Expectations are asserted programmatically (suppress_test.go), not
// with want comments: a malformed suppression's diagnostic is reported
// on the comment's own line, which the comment already occupies.
package malformed

import (
	"time"

	"sim"
)

// No reason: the waiver is itself a finding, and suppresses nothing —
// the wall-clock call fires too.
func bareSuppression() time.Time {
	return time.Now() //collvet:ignore wallclock
}

// Unknown analyzer name: reported, and the call below still fires.
func unknownAnalyzer() time.Time {
	//collvet:ignore nosuchanalyzer -- the name is wrong on purpose
	return time.Now()
}

// Missing analyzer name: reported, and the call below still fires.
func missingName() time.Time {
	//collvet:ignore -- which analyzer?
	return time.Now()
}

// Well-formed but naming a different analyzer: not a finding itself,
// and the maporder finding below is NOT covered.
func mismatched(k *sim.Kernel, delays map[int]sim.Time) {
	for _, d := range delays {
		//collvet:ignore wallclock -- fixture: names the wrong analyzer on purpose
		k.After(d, func() {})
	}
}
