// Fixtures for the wallclock analyzer's probe zone: the probe core
// (…/internal/probe) records events inside the simulators and is part
// of the deterministic zone, so host time is forbidden here just like
// in the sim packages.
package probe

import "time"

type event struct {
	at   time.Duration
	name string
}

func badStamp() time.Time {
	return time.Now() // want `wall-clock call time.Now`
}

// --- deterministic idioms that must stay silent ---

func goodVirtualTime(evs []event) time.Duration {
	var last time.Duration
	for _, e := range evs {
		if e.at > last {
			last = e.at
		}
	}
	return last
}
