// Fixtures for the metrics zone entry: the telemetry samplers live on
// a deterministic-zone import path (…/internal/metrics), so wall-clock
// reads are forbidden in this file — samples must be folded at
// virtual-time instants the kernel already produces.
package metrics

import "time"

func badCadence() time.Time {
	return time.Now() // want `wall-clock call time.Now`
}

func badTicker() *time.Ticker {
	return time.NewTicker(time.Second) // want `wall-clock call time.NewTicker`
}
