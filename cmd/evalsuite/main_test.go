package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateExpAcceptsAllKnown(t *testing.T) {
	for _, name := range validExperiments {
		if err := validateExp(name); err != nil {
			t.Errorf("validateExp(%q) = %v, want nil", name, err)
		}
	}
}

func TestValidateExpRejectsUnknown(t *testing.T) {
	// "tabel1" is the regression shape: before the upfront check, a
	// typoed -exp combined with any observability flag silently ran the
	// probe experiment instead of failing.
	for _, name := range []string{"tabel1", "", "Scale", "fig5", "all "} {
		err := validateExp(name)
		if err == nil {
			t.Errorf("validateExp(%q) accepted", name)
			continue
		}
		for _, v := range validExperiments {
			if !strings.Contains(err.Error(), v) {
				t.Errorf("validateExp(%q) error %q does not list %q", name, err, v)
			}
		}
	}
}

// TestProbeRunWritesEveryArtefact runs the probe experiment at a small
// rank count with every output flag and requires each artefact to be
// non-empty: the Perfetto trace, the three metrics-snapshot files, and
// the report, counters and summary on the text stream.
func TestProbeRunWritesEveryArtefact(t *testing.T) {
	dir := t.TempDir()
	traceJSON := filepath.Join(dir, "trace.json")
	base := filepath.Join(dir, "run")
	var out bytes.Buffer
	if err := probeRun(&out, 16, true, traceJSON, true, true, base); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{traceJSON, base + ".prom", base + ".csv", base + ".html"} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", path, err)
		}
	}
	for _, want := range []string{"probe counters (tileio-1m, np=16)", "metrics summary (tileio-1m, np=16)", "tileio-1m write-comm-2-overlap/two-sided np=16"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text output lacks %q", want)
		}
	}
}
