package exp

import (
	"testing"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/simnet"
	"collio/internal/workload/flashio"
	"collio/internal/workload/ior"
)

// executorOf is the executor Execute runs spec on.
func executorOf(t *testing.T, spec Spec) string {
	t.Helper()
	e, err := ExecutorFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(e)
}

// TestExecutorTruthTable pins which executor every eligibility input
// selects. The base spec qualifies for all three executors (a
// collapsing two-sided write on a deterministic platform, JRun 2,
// Bundle on); each row changes one input. Precedence is bundled, then
// parallel, then exact.
func TestExecutorTruthTable(t *testing.T) {
	base := Spec{
		Platform:  platform.Crill().Deterministic(),
		NProcs:    4 * 48,
		Gen:       ior.Config{BlockSize: 8 << 20, Segments: 1},
		Algorithm: fcoll.WriteComm2Overlap,
		Primitive: fcoll.TwoSided,
		Seed:      1,
		JRun:      2,
		Bundle:    true,
	}
	rows := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"base", func(*Spec) {}, "bundled"},
		{"bundle off", func(s *Spec) { s.Bundle = false }, "parallel"},
		{"bundle off, jrun 0", func(s *Spec) { s.Bundle, s.JRun = false, 0 }, "exact"},
		{"jrun 0", func(s *Spec) { s.JRun = 0 }, "bundled"},
		{"read", func(s *Spec) { s.Read = true }, "exact"},
		{"data mode", func(s *Spec) { s.DataMode = true }, "exact"},
		{"one-sided fence", func(s *Spec) { s.Primitive = fcoll.OneSidedFence }, "exact"},
		{"one-sided lock", func(s *Spec) { s.Primitive = fcoll.OneSidedLock }, "exact"},
		{"one-sided pscw", func(s *Spec) { s.Primitive = fcoll.OneSidedPSCW }, "exact"},
		{"hierarchical", func(s *Spec) { s.Hierarchical = true }, "parallel"},
		{"hierarchical, jrun 0", func(s *Spec) { s.Hierarchical, s.JRun = true, 0 }, "exact"},
		{"progress thread", func(s *Spec) { s.Platform.ProgressThread = true }, "exact"},
		{"net noise", func(s *Spec) { s.Platform.NetNoiseSigma = 0.05 }, "exact"},
		{"storage noise", func(s *Spec) { s.Platform.StorageNoiseSigma = 0.05 }, "exact"},
		{"run noise net", func(s *Spec) { s.Platform.RunNoiseNet = 0.05 }, "exact"},
		{"run noise storage", func(s *Spec) { s.Platform.RunNoiseStorage = 0.05 }, "exact"},
		{"rendezvous chunk 0", func(s *Spec) { s.Platform.RendezvousChunk = 0 }, "bundled"},
		{"rendezvous chunk 0, bundle off", func(s *Spec) { s.Platform.RendezvousChunk, s.Bundle = 0, false }, "exact"},
		{"rendezvous chunk 1 MiB, bundle off", func(s *Spec) { s.Platform.RendezvousChunk, s.Bundle = 1<<20, false }, "exact"},
		{"flow model", func(s *Spec) { s.Platform.NetModel = simnet.ModelFlow }, "bundled"},
		{"flow model, bundle off", func(s *Spec) { s.Platform.NetModel, s.Bundle = simnet.ModelFlow, false }, "exact"},
		{"asymmetric workload", func(s *Spec) { s.Gen = jitteredFlash }, "parallel"},
		{"asymmetric workload, jrun 0", func(s *Spec) { s.Gen, s.JRun = jitteredFlash, 0 }, "exact"},
	}
	for _, row := range rows {
		spec := base
		row.edit(&spec)
		if got := executorOf(t, spec); got != row.want {
			t.Errorf("%s: executor %s, want %s", row.name, got, row.want)
		}
	}
}

// jitteredFlash carries per-rank load imbalance (FLASH's AMR jitter),
// so its plan does not collapse into cohorts (TestCohortFallback).
var jitteredFlash = flashio.Config{NXB: 8, NYB: 8, NZB: 8, BytesPerCell: 8, BlocksPerProc: 8, BlockJitter: 4, NumVars: 2}

// withJRun returns spec with JRun set.
func withJRun(spec Spec, jrun int) Spec {
	spec.JRun = jrun
	return spec
}
