//go:build !poolquarantine

package sim

// quarantine is off: Pool.Put recycles (see quarantine.go).
const quarantine = false
