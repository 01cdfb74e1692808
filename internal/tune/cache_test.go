package tune

import (
	"reflect"
	"sync"
	"testing"

	"collio/internal/exp"
	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/workload/ior"
)

// testSpec is the small reference question of the cache tests.
func testSpec() exp.Spec {
	return exp.Spec{
		Platform:  platform.Crill().Deterministic(),
		NProcs:    8,
		Gen:       ior.Default(),
		Algorithm: fcoll.WriteOverlap,
	}
}

// TestSelectSingleFlight: on a cold cache, any number of concurrent
// callers asking one question run exactly one simulation; everyone
// receives the leader's result.
func TestSelectSingleFlight(t *testing.T) {
	c := NewCache(nil, nil)
	const callers = 16
	results := make([]exp.Result, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			results[i], _, errs[i] = c.EvalSpec(testSpec())
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got %+v, caller 0 got %+v", i, results[i], results[0])
		}
	}
	s := c.Stats()
	if s.Simulations != 1 {
		t.Errorf("%d concurrent cold callers ran %d simulations, want exactly 1", callers, s.Simulations)
	}
	if s.Coalesced+s.Hits != callers-1 {
		t.Errorf("stats don't account for the other %d callers: %+v", callers-1, s)
	}
	if s.Entries != 1 {
		t.Errorf("Entries = %d, want 1", s.Entries)
	}
}

// TestConcurrentSelectSimulatesEachConfigOnce: concurrent Select
// callers on a cold shared cache simulate each distinct grid point
// exactly once, and every caller agrees on the winner.
func TestConcurrentSelectSimulatesEachConfigOnce(t *testing.T) {
	cache := NewCache(nil, nil)
	const callers = 4
	sels := make([]Selection, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			tn := NewWithCache(Options{Parallel: 2}, cache)
			sels[i], errs[i] = tn.Select(ior.Default(), platform.Crill(), 8)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if sels[i].Best.Config != sels[0].Best.Config || sels[i].Best.Result != sels[0].Best.Result {
			t.Fatalf("caller %d best %+v disagrees with caller 0 %+v", i, sels[i].Best, sels[0].Best)
		}
	}
	points := DefaultSpace().Size()
	s := cache.Stats()
	if s.Simulations != int64(points) {
		t.Errorf("%d concurrent Selects over a %d-point space ran %d simulations, want exactly %d",
			callers, points, s.Simulations, points)
	}
}

// TestWarmEqualsColdAcrossExecutionStrategies: a warm query returns the
// cold run's Result bit-identically, regardless of the sweep
// parallelism (-j) of either side — that knob is absent from the
// digest because it is result-preserving. The bundled executor is result-affecting, so its
// queries occupy separate cache lines but obey the same warm==cold
// contract.
func TestWarmEqualsColdAcrossExecutionStrategies(t *testing.T) {
	gen, pf, np := ior.Default(), platform.Ibex(), 16

	cold := NewWithCache(Options{Parallel: 1}, NewCache(nil, nil))
	want, err := cold.Select(gen, pf, np)
	if err != nil {
		t.Fatal(err)
	}
	if want.Hits != 0 {
		t.Fatalf("cold Select reported %d hits", want.Hits)
	}

	variants := []Options{
		{Parallel: 1},
		{Parallel: 4},
	}
	for _, opts := range variants {
		// Warm against the cold run's cache: everything hits, results
		// are the cold Results untouched.
		warm := NewWithCache(opts, cold.Cache())
		got, err := warm.Select(gen, pf, np)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if got.Hits != got.Evaluated {
			t.Errorf("%+v: warm Select simulated (%d/%d hits)", opts, got.Hits, got.Evaluated)
		}
		if !selectionsEqual(got, want) {
			t.Errorf("%+v: warm results differ from cold", opts)
		}

		// Fresh cold run under the variant strategy: identical results
		// (the digest merges these lines for a reason).
		fresh := NewWithCache(opts, NewCache(nil, nil))
		got, err = fresh.Select(gen, pf, np)
		if err != nil {
			t.Fatalf("%+v cold: %v", opts, err)
		}
		if !selectionsEqual(got, want) {
			t.Errorf("%+v: cold results under this strategy differ from -j1 cold", opts)
		}
	}

	// Bundled: separate cache lines (tolerance-level answers), same
	// warm==cold contract within the bundled family.
	bcold := NewWithCache(Options{Parallel: 2, Bundle: true}, NewCache(nil, nil))
	bwant, err := bcold.Select(gen, pf, np)
	if err != nil {
		t.Fatal(err)
	}
	bwarm := NewWithCache(Options{Parallel: 1, Bundle: true}, bcold.Cache())
	bgot, err := bwarm.Select(gen, pf, np)
	if err != nil {
		t.Fatal(err)
	}
	if bgot.Hits != bgot.Evaluated {
		t.Errorf("warm bundled Select simulated (%d/%d hits)", bgot.Hits, bgot.Evaluated)
	}
	if !selectionsEqual(bgot, bwant) {
		t.Errorf("warm bundled results differ from cold bundled")
	}
}

// selectionsEqual compares the result-bearing parts of two selections
// (Hit flags legitimately differ between cold and warm).
func selectionsEqual(a, b Selection) bool {
	if a.Best.Config != b.Best.Config || a.Best.Result != b.Best.Result {
		return false
	}
	if len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.Candidates {
		ca, cb := a.Candidates[i], b.Candidates[i]
		if !reflect.DeepEqual(ca.Config, cb.Config) || ca.Result != cb.Result {
			return false
		}
		if (ca.Err == nil) != (cb.Err == nil) {
			return false
		}
	}
	return true
}

// TestSelectSkipsInfeasiblePoints: a grid point that cannot run is
// recorded and skipped, not fatal; a grid where nothing runs is an
// error.
func TestSelectSkipsInfeasiblePoints(t *testing.T) {
	// A negative aggregator count fails fcoll's option validation, so
	// half this grid is infeasible while 0 (auto) works.
	opts := Options{Space: Space{AggregatorCounts: []int{0, -1}}, Parallel: 1}
	tn := NewWithCache(opts, NewCache(nil, nil))
	sel, err := tn.Select(ior.Default(), platform.Crill(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Skipped == 0 {
		t.Errorf("expected skipped infeasible points, got %+v", sel)
	}
	if sel.Evaluated == 0 || sel.Best.Err != nil {
		t.Errorf("feasible points should still win: %+v", sel)
	}

	// Rank count beyond the platform: every point fails.
	tn2 := NewWithCache(Options{Parallel: 1}, NewCache(nil, nil))
	if _, err := tn2.Select(ior.Default(), platform.Crill(), platform.Crill().MaxProcs()+1); err == nil {
		t.Error("Select succeeded with nprocs beyond the platform")
	}
}
