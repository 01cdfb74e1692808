// Fixtures for maporder in the probe zone: the probe core
// (…/internal/probe) records events inside the simulators and is part
// of the deterministic zone, so map-order-dependent writes are
// forbidden here just like in the sim packages.
package probe

import "sort"

func badCounterDump(counters map[string]int64) []string {
	var lines []string
	for name := range counters {
		lines = append(lines, name) // want `append to "lines" inside range over map`
	}
	return lines
}

// --- deterministic idioms that must stay silent ---

func goodSnapshot(counters map[string]int64) []string {
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name) // sorted below
	}
	sort.Strings(names)
	return names
}
