package analyzer

import (
	"strings"
	"testing"
)

// TestSuppressHonored runs a syntactic analyzer and a CFG-based one
// over the suppress fixture: the waived findings vanish (one waiver
// names both analyzers), the unrelated one survives (it has a want
// comment), and the suppressed count is exact.
func TestSuppressHonored(t *testing.T) {
	runFixtureAnalyzers(t, []*Analyzer{WallClock, MapOrder}, "suppress/internal/fcoll")
}

func TestSuppressHonoredCount(t *testing.T) {
	l := newFixtureLoader(t)
	pkgs := []*Package{l.load("suppress/internal/fcoll")}
	diags, stats, err := RunWithStats(pkgs, []*Analyzer{WallClock, MapOrder})
	if err != nil {
		t.Fatal(err)
	}
	// suppressedMapSchedule: one maporder finding on the waived line;
	// suppressedClockLineAbove: one wallclock finding below its waiver.
	if stats.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2; kept: %v", stats.Suppressed, diags)
	}
	if len(diags) != 1 {
		t.Errorf("kept %d diagnostics, want 1 (the unsuppressed clock read): %v", len(diags), diags)
	}
}

// TestSuppressMalformed pins the malformed-waiver contract: a
// suppression without a reason, without an analyzer name, or naming an
// unknown analyzer is itself a finding (pseudo-analyzer "collvet") and
// suppresses nothing; a well-formed waiver for the wrong analyzer is
// silent but equally ineffective.
func TestSuppressMalformed(t *testing.T) {
	l := newFixtureLoader(t)
	pkgs := []*Package{l.load("suppress/internal/fcoll/malformed")}
	diags, err := Run(pkgs, []*Analyzer{WallClock, MapOrder})
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		analyzer string
		substr   string
	}
	wants := []want{
		{"collvet", "suppression without a reason"},
		{"collvet", "suppression names unknown analyzer \"nosuchanalyzer\""},
		{"collvet", "suppression without an analyzer name"},
		{"wallclock", "wall-clock call time.Now"},               // bareSuppression: not waived
		{"wallclock", "wall-clock call time.Now"},               // unknownAnalyzer
		{"wallclock", "wall-clock call time.Now"},               // missingName
		{"maporder", "call to sim.After inside range over map"}, // mismatched
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no [%s] diagnostic containing %q in:\n%v", w.analyzer, w.substr, diags)
		}
	}
}
