package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/sim"
	"collio/internal/simnet"
	"collio/internal/workload/ior"
)

// ScaleConfig configures the multi-thousand-rank scale sweep: an IOR
// collective write on the ibex model (the larger platform, 4320 rank
// capacity) at rank counts far beyond the paper's 16–704 range. The
// sweep exists to exercise — and to document the cost of — the regime
// the flat-plan and pooled-protocol hot path opens up; its simulated
// results are as deterministic as any other run.
type ScaleConfig struct {
	// RankCounts to sweep; every count must fit the ibex model (4320).
	RankCounts []int
	// Algorithms to run per rank count.
	Algorithms []fcoll.Algorithm
	// PerRankBytes is each rank's write volume (the file grows linearly
	// with the rank count). Default 1 MiB: large enough for several
	// cycles per aggregator at scale, small enough that the 4096-rank
	// point stays a quick run.
	PerRankBytes int64
	// Seed drives platform noise (one run per point).
	Seed int64
	// Bundle runs every point on the bundled cohort executor
	// (deterministic ibex model, scaled to the rank count): symmetric
	// non-aggregator ranks collapse into per-node batches and the
	// collective ladders are charged in closed form. This lifts the
	// sweep's capacity limit — rank counts beyond the physical ibex
	// model auto-scale the node count — and is the E11 regime
	// (100k–1M ranks). Without it the sweep is the historical noisy
	// exact sweep (E8).
	Bundle bool
	// NetModel selects the simnet transfer model for bundled points:
	// ModelChunked (default, the exact reference) or ModelFlow (fluid
	// max-min fair sharing, the scale fast path). Ignored unless Bundle
	// is set — the pinned-digest experiments stay on the chunked model.
	NetModel simnet.NetModel
	// Progress, if non-nil, receives one line per completed point.
	Progress io.Writer
}

// DefaultScaleConfig returns the quick sweep recorded in EXPERIMENTS.md:
// 1024/2048/4096 ranks, baseline vs the paper's best all-round
// algorithm.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		RankCounts:   []int{1024, 2048, 4096},
		Algorithms:   []fcoll.Algorithm{fcoll.NoOverlap, fcoll.WriteComm2Overlap},
		PerRankBytes: 1 << 20,
		Seed:         17,
	}
}

// ScalePoint is one row of the scale sweep.
type ScalePoint struct {
	NProcs    int
	Algorithm string
	// Elapsed is the simulated completion time (slowest rank).
	Elapsed sim.Time
	// Bytes is the file volume written.
	Bytes int64
	// Wall is the host wall-clock the simulation itself took — the
	// number the hot-path work targets.
	Wall time.Duration
	// PeakRSS is the Go runtime's total reserved memory
	// (runtime.MemStats.Sys) sampled after the point completed. Sys is
	// monotonic for the process, so within one sweep the column reads
	// as the running peak: a point that needs more memory than any
	// before it moves the number, one that fits in the already-reserved
	// arena does not.
	PeakRSS uint64
}

// ScaleSpec builds the Spec for one scale-sweep point, shared by the
// sweep runner and BenchmarkScaleSweep so both measure the same
// simulation.
func ScaleSpec(np int, algo fcoll.Algorithm, perRankBytes, seed int64) Spec {
	if perRankBytes <= 0 {
		perRankBytes = 1 << 20
	}
	return Spec{
		Platform:  platform.Ibex(),
		NProcs:    np,
		Gen:       ior.Config{BlockSize: perRankBytes, Segments: 1},
		Algorithm: algo,
		Seed:      seed,
	}
}

// BundledScaleSpec is ScaleSpec on the deterministic ibex model with
// the bundled cohort executor and the selected network model — the E11
// configuration. Rank counts beyond the physical ibex model are legal:
// the bundled executor scales the node count to fit.
func BundledScaleSpec(np int, algo fcoll.Algorithm, perRankBytes, seed int64, nm simnet.NetModel) Spec {
	spec := ScaleSpec(np, algo, perRankBytes, seed)
	spec.Platform = spec.Platform.Deterministic()
	spec.Platform.NetModel = nm
	spec.Bundle = true
	return spec
}

// RunScaleSweep executes the sweep. Points run sequentially — each one
// is internally a whole simulated cluster, and sequential execution
// keeps the per-point wall-clock numbers honest.
func RunScaleSweep(cfg ScaleConfig) ([]ScalePoint, error) {
	if len(cfg.RankCounts) == 0 || len(cfg.Algorithms) == 0 {
		return nil, fmt.Errorf("exp: scale sweep needs rank counts and algorithms")
	}
	pf := platform.Ibex()
	pw := newProgressWriter(cfg.Progress)
	pr := liveProgress.Load()
	pr.AddTotal(len(cfg.RankCounts) * len(cfg.Algorithms))
	var out []ScalePoint
	for _, np := range cfg.RankCounts {
		// Bundled points auto-scale the node count (BundledScaleSpec);
		// exact points are bound by the physical ibex model.
		if !cfg.Bundle && np > pf.MaxProcs() {
			return nil, fmt.Errorf("exp: scale sweep np=%d exceeds %s capacity %d (use Bundle for larger counts)",
				np, pf.Name, pf.MaxProcs())
		}
		for _, algo := range cfg.Algorithms {
			spec := ScaleSpec(np, algo, cfg.PerRankBytes, cfg.Seed)
			if cfg.Bundle {
				spec = BundledScaleSpec(np, algo, cfg.PerRankBytes, cfg.Seed, cfg.NetModel)
			}
			start := time.Now()
			m, err := Execute(spec)
			if err != nil {
				return nil, fmt.Errorf("scale np=%d %v: %w", np, algo, err)
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			p := ScalePoint{
				NProcs:    np,
				Algorithm: algo.String(),
				Elapsed:   m.Elapsed,
				Bytes:     m.BytesWritten,
				Wall:      time.Since(start),
				PeakRSS:   ms.Sys,
			}
			out = append(out, p)
			pr.Done(1)
			pw.Printf("scale: np=%-7d %-22s sim=%-12v wall=%-10v rss=%dMiB\n",
				p.NProcs, p.Algorithm, p.Elapsed, p.Wall.Round(time.Millisecond), p.PeakRSS>>20)
		}
	}
	return out, nil
}
