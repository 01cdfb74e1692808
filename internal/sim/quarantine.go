//go:build poolquarantine

package sim

// quarantine is set by the poolquarantine build tag. Pool.Put then
// keeps every released object out of circulation, so a use after
// release meets the released object, never one a later Get handed out
// again. It is a test lane: each Get takes a fresh object.
const quarantine = true
