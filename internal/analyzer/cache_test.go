package analyzer

import (
	"reflect"
	"testing"
)

// TestRunCached exercises the result cache end-to-end on a real module
// package: a cold run misses, an identical re-run is served entirely
// from cache with identical diagnostics, and changing the analyzer
// configuration invalidates the keys.
func TestRunCached(t *testing.T) {
	if testing.Short() {
		t.Skip("module type check is slow; skipped with -short")
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	patterns := []string{"collio/internal/sim"}

	d1, s1, err := RunCached("", patterns, All(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if s1.CacheHits != 0 || s1.CacheMisses == 0 {
		t.Errorf("cold run: hits=%d misses=%d, want 0 hits and >0 misses", s1.CacheHits, s1.CacheMisses)
	}

	d2, s2, err := RunCached("", patterns, All(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if s2.CacheMisses != 0 || s2.CacheHits != s1.CacheMisses {
		t.Errorf("warm run: hits=%d misses=%d, want %d hits and 0 misses", s2.CacheHits, s2.CacheMisses, s1.CacheMisses)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("cached diagnostics differ:\ncold: %v\nwarm: %v", d1, d2)
	}

	// A different analyzer selection is a different config hash: the
	// warm entries must not be served.
	_, s3, err := RunCached("", patterns, []*Analyzer{MapOrder}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if s3.CacheHits != 0 {
		t.Errorf("config change: hits=%d, want 0", s3.CacheHits)
	}
}
