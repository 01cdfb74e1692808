package main

import (
	"testing"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/tune"
	"collio/internal/workload"
	"collio/internal/workload/flashio"
	"collio/internal/workload/ior"
)

// TestSweepBundles pins the E12 refusal gate: a large cell is swept
// only when exp's executor decision routes every point of the space to
// the bundled executor.
func TestSweepBundles(t *testing.T) {
	pf, np := platform.Ibex(), 2048
	bundled := tune.Options{Bundle: true}
	oneSided := tune.Options{Bundle: true, Space: tune.Space{
		Primitives: []fcoll.Primitive{fcoll.TwoSided, fcoll.OneSidedFence}}}
	for _, c := range []struct {
		name string
		opts tune.Options
		gen  workload.Generator
		want bool
	}{
		{"flashio, bundle", bundled, flashio.Default(), true},
		{"flashio, no bundle", tune.Options{}, flashio.Default(), false},
		{"flashio, one-sided point", oneSided, flashio.Default(), false},
		{"ior, asymmetric at domain edges", bundled, ior.Default(), false},
	} {
		if got := sweepBundles(c.opts, c.gen, pf, np); got != c.want {
			t.Errorf("%s: sweepBundles = %v, want %v", c.name, got, c.want)
		}
	}
}
