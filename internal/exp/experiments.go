package exp

import (
	"fmt"
	"io"
	"sort"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/sim"
	"collio/internal/stats"
	"collio/internal/workload"
	"collio/internal/workload/flashio"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// BenchCase is one benchmark configuration of the evaluation sweep,
// labelled with its Table-I row.
type BenchCase struct {
	Group string
	Gen   workload.Generator
}

// SweepConfig configures the evaluation sweep shared by Table I and
// Figs. 2–4.
type SweepConfig struct {
	Platforms  []platform.Platform
	ProcCounts []int
	Benchmarks []BenchCase
	// Runs is the measurement-series length (the paper uses 3–9).
	Runs int
	// SeedBase offsets all series seeds.
	SeedBase int64
	// Progress, if non-nil, receives one line per completed run (live,
	// serialized across workers) plus one summary line per series.
	Progress io.Writer
	// Parallel bounds the sweep's worker count; <= 0 means every core
	// (runtime.GOMAXPROCS). Results are identical at any parallelism:
	// every simulation is an independent function of its (Spec, seed)
	// and outputs are collected in case order, never completion order.
	Parallel int
}

// scaledCase builds a benchmark at a volume scale (the paper varies
// problem sizes per benchmark; we use two sizes each).
func benchCases(small bool) []BenchCase {
	iorCfg := ior.Default()
	t256 := tileio.Tile256()
	t1m := tileio.Tile1M()
	flash := flashio.Default()
	if small {
		iorCfg.BlockSize /= 4
		t256.ElemsX /= 2
		t256.ElemsY /= 2
		t1m.ElemsX /= 2
		t1m.ElemsY /= 2
		flash.BlocksPerProc /= 2
	}
	suffix := ""
	if small {
		suffix = "-s"
	}
	t256.Label += suffix
	t1m.Label += suffix
	return []BenchCase{
		{Group: "IOR", Gen: iorCfg},
		{Group: "Tile I/O 256", Gen: t256},
		{Group: "Tile I/O 1M", Gen: t1m},
		{Group: "Flash I/O", Gen: flash},
	}
}

// QuickSweep is a laptop-scale sweep (minutes): both platforms, small
// process counts, two problem sizes, 3-run series.
func QuickSweep() SweepConfig {
	return SweepConfig{
		Platforms:  platform.Platforms(),
		ProcCounts: []int{16, 32, 64},
		Benchmarks: append(benchCases(false), benchCases(true)...),
		Runs:       3,
		SeedBase:   1000,
	}
}

// FullSweep extends the quick sweep's process counts to 16–256 (the
// paper's reach 704 on crill and 729 on Ibex); expect a long runtime.
func FullSweep() SweepConfig {
	return SweepConfig{
		Platforms:  platform.Platforms(),
		ProcCounts: []int{16, 32, 64, 128, 256},
		Benchmarks: append(benchCases(false), benchCases(true)...),
		Runs:       3,
		SeedBase:   1000,
	}
}

// SweepResult holds everything the sweep-derived artifacts need.
type SweepResult struct {
	// Wins tallies best-algorithm counts per benchmark group — Table I.
	Wins *stats.WinCounter
	// Improvements per platform: Figs. 2 (crill) and 3 (ibex).
	Improvements map[string]*stats.Improvements
	// Series counts the total test series executed.
	Series int
}

// algorithms in paper column order.
var algoNames = func() []string {
	var out []string
	for _, a := range fcoll.Algorithms {
		out = append(out, a.String())
	}
	return out
}()

// sweepCell is one (platform, benchmark, process count) cell of a sweep
// with the base seed of its first series, assigned in canonical
// enumeration order — exactly the seeds the sequential runner used.
type sweepCell struct {
	pf   platform.Platform
	bc   BenchCase
	np   int
	seed int64
}

// enumerateCells lists a sweep's cells in canonical order, advancing the
// seed by seedsPerCell per cell.
func enumerateCells(cfg SweepConfig, benchmarks []BenchCase, seedBase int64, seedsPerCell int64) []sweepCell {
	var cells []sweepCell
	seed := seedBase
	for _, pf := range cfg.Platforms {
		for _, bc := range benchmarks {
			for _, np := range cfg.ProcCounts {
				if np > pf.MaxProcs() {
					continue
				}
				cells = append(cells, sweepCell{pf: pf, bc: bc, np: np, seed: seed})
				seed += seedsPerCell
			}
		}
	}
	return cells
}

// RunTableISweep executes the evaluation sweep behind Table I and
// Figs. 2–3: for every (platform, benchmark, process count) it runs a
// series per overlap algorithm, counts the winner by min-of-series and
// accumulates positive improvements over the no-overlap baseline.
//
// Every run is an independent simulation, so the whole grid fans across
// cfg.Parallel workers; results fold in canonical cell order, making the
// outcome identical at any parallelism.
func RunTableISweep(cfg SweepConfig) (*SweepResult, error) {
	groups := map[string]bool{}
	var groupOrder []string
	for _, b := range cfg.Benchmarks {
		if !groups[b.Group] {
			groups[b.Group] = true
			groupOrder = append(groupOrder, b.Group)
		}
	}
	res := &SweepResult{
		Wins:         stats.NewWinCounter(groupOrder, algoNames),
		Improvements: make(map[string]*stats.Improvements),
	}
	for _, pf := range cfg.Platforms {
		res.Improvements[pf.Name] = stats.NewImprovements()
	}

	runs := cfg.Runs
	perCell := len(fcoll.Algorithms) * runs
	cells := enumerateCells(cfg, cfg.Benchmarks, cfg.SeedBase, int64(perCell))

	// Fan out one job per (cell, algorithm, run). Unpaired series: each
	// algorithm is measured in its own runs under independent
	// interference, as on a real shared cluster.
	n := len(cells) * perCell
	times := make([]sim.Time, n)
	errs := make([]error, n)
	pw := newProgressWriter(cfg.Progress)
	forEach(cfg.Parallel, n, func(i int) {
		c := cells[i/perCell]
		algoIdx := (i % perCell) / runs
		algo := fcoll.Algorithms[algoIdx]
		spec := Spec{
			Platform:  c.pf,
			NProcs:    c.np,
			Gen:       c.bc.Gen,
			Algorithm: algo,
			Seed:      c.seed + int64(i%perCell),
		}
		m, err := Execute(spec)
		if err != nil {
			errs[i] = fmt.Errorf("sweep %s/%s/np=%d/%v: %w", c.pf.Name, c.bc.Gen.Name(), c.np, algo, err)
			return
		}
		times[i] = m.Elapsed
		pw.Printf("run: %-6s %-14s np=%-4d %-22v seed=%-6d %v\n",
			c.pf.Name, c.bc.Gen.Name(), c.np, algo, spec.Seed, m.Elapsed)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	// Fold in canonical order.
	for ci, c := range cells {
		mins := make(map[string]stats.Series, len(fcoll.Algorithms))
		for ai, algo := range fcoll.Algorithms {
			var s stats.Series
			for r := 0; r < runs; r++ {
				s.Add(times[ci*perCell+ai*runs+r])
			}
			mins[algo.String()] = s
		}
		base := mins[fcoll.NoOverlap.String()].Min()
		seriesTimes := make(map[string]sim.Time, len(mins))
		for name, s := range mins {
			seriesTimes[name] = s.Min()
		}
		res.Wins.Record(c.bc.Group, seriesTimes)
		for _, algo := range fcoll.Algorithms {
			if algo == fcoll.NoOverlap {
				continue
			}
			imp := stats.Improvement(base, mins[algo.String()].Min())
			res.Improvements[c.pf.Name].Record(c.bc.Group, algo.String(), imp)
		}
		res.Series++
		pw.Printf("series %3d: %-6s %-14s np=%-4d base=%v\n",
			res.Series, c.pf.Name, c.bc.Gen.Name(), c.np, base)
	}
	return res, nil
}

// Fig1Point is one bar of Figure 1.
type Fig1Point struct {
	Platform  string
	NProcs    int
	Algorithm string
	Min       sim.Time
}

// RunFig1 reproduces Figure 1: Tile I/O 1M execution time for two
// process counts on both platforms, min-of-series per algorithm. The
// independent runs fan across up to parallel workers (<= 0 means every
// core); points come back in canonical (platform, np, algorithm) order
// regardless of parallelism.
func RunFig1(procCounts []int, runs, parallel int, progress io.Writer) ([]Fig1Point, error) {
	gen := tileio.Tile1M()
	type fig1Cell struct {
		pf   platform.Platform
		np   int
		algo fcoll.Algorithm
		seed int64
	}
	var cells []fig1Cell
	seed := int64(5000)
	for _, pf := range platform.Platforms() {
		for _, np := range procCounts {
			if np > pf.MaxProcs() {
				continue
			}
			for _, algo := range fcoll.Algorithms {
				cells = append(cells, fig1Cell{pf: pf, np: np, algo: algo, seed: seed})
				seed += int64(runs)
			}
		}
	}
	n := len(cells) * runs
	times := make([]sim.Time, n)
	errs := make([]error, n)
	forEach(parallel, n, func(i int) {
		c := cells[i/runs]
		m, err := Execute(Spec{
			Platform: c.pf, NProcs: c.np, Gen: gen,
			Algorithm: c.algo, Seed: c.seed + int64(i%runs),
		})
		times[i], errs[i] = m.Elapsed, err
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	out := make([]Fig1Point, 0, len(cells))
	pw := newProgressWriter(progress)
	for ci, c := range cells {
		var s stats.Series
		for r := 0; r < runs; r++ {
			s.Add(times[ci*runs+r])
		}
		out = append(out, Fig1Point{
			Platform: c.pf.Name, NProcs: c.np,
			Algorithm: c.algo.String(), Min: s.Min(),
		})
		pw.Printf("fig1: %-6s np=%-4d %-22s min=%v\n", c.pf.Name, c.np, c.algo, s.Min())
	}
	return out, nil
}

// Fig4Result aggregates the transfer-primitive comparison.
type Fig4Result struct {
	// Wins per benchmark group per primitive (Fig. 4's bars).
	Wins *stats.WinCounter
	// CrillSmallNP / CrillLargeNP count one-sided wins below/at-or-
	// above the paper's 256-process threshold (§IV-B's scaling trend).
	CrillSmallOneSided, CrillSmallTotal int
	CrillLargeOneSided, CrillLargeTotal int
}

// primitive names in paper order.
var primNames = func() []string {
	var out []string
	for _, p := range fcoll.Primitives {
		out = append(out, p.String())
	}
	return out
}()

// RunFig4Sweep reproduces Figure 4: with the Write-Comm-2 overlap
// algorithm, compare the three shuffle primitives across IOR and both
// Tile I/O configurations (the benchmarks §IV-B uses).
func RunFig4Sweep(cfg SweepConfig) (*Fig4Result, error) {
	var groupOrder []string
	seen := map[string]bool{}
	var cases []BenchCase
	for _, bc := range cfg.Benchmarks {
		if bc.Group == "Flash I/O" {
			continue // §IV-B uses IOR and Tile I/O only
		}
		cases = append(cases, bc)
		if !seen[bc.Group] {
			seen[bc.Group] = true
			groupOrder = append(groupOrder, bc.Group)
		}
	}
	res := &Fig4Result{Wins: stats.NewWinCounter(groupOrder, primNames)}

	runs := cfg.Runs
	perCell := len(fcoll.Primitives) * runs
	cells := enumerateCells(cfg, cases, cfg.SeedBase+90000, int64(perCell))

	n := len(cells) * perCell
	elapsed := make([]sim.Time, n)
	errs := make([]error, n)
	forEach(cfg.Parallel, n, func(i int) {
		c := cells[i/perCell]
		prim := fcoll.Primitives[(i%perCell)/runs]
		m, err := Execute(Spec{
			Platform:  c.pf,
			NProcs:    c.np,
			Gen:       c.bc.Gen,
			Algorithm: fcoll.WriteComm2Overlap,
			Primitive: prim,
			Seed:      c.seed + int64(i%perCell),
		})
		elapsed[i], errs[i] = m.Elapsed, err
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	pw := newProgressWriter(cfg.Progress)
	for ci, c := range cells {
		times := make(map[string]sim.Time)
		for pi, prim := range fcoll.Primitives {
			var s stats.Series
			for r := 0; r < runs; r++ {
				s.Add(elapsed[ci*perCell+pi*runs+r])
			}
			times[prim.String()] = s.Min()
		}
		res.Wins.Record(c.bc.Group, times)
		// §IV-B scaling trend bookkeeping (crill only).
		if c.pf.Name == "crill" {
			best := bestName(times)
			oneSided := best != fcoll.TwoSided.String()
			if c.np < 256 {
				res.CrillSmallTotal++
				if oneSided {
					res.CrillSmallOneSided++
				}
			} else {
				res.CrillLargeTotal++
				if oneSided {
					res.CrillLargeOneSided++
				}
			}
		}
		pw.Printf("fig4: %-6s %-14s np=%-4d best=%s\n",
			c.pf.Name, c.bc.Gen.Name(), c.np, bestName(times))
	}
	return res, nil
}

func bestName(times map[string]sim.Time) string {
	var names []string
	for n := range times {
		names = append(names, n)
	}
	sort.Strings(names)
	best := ""
	var bt sim.Time
	for _, n := range names {
		if best == "" || times[n] < bt {
			best, bt = n, times[n]
		}
	}
	return best
}

// Breakdown reproduces the §IV-A analysis: the shuffle vs file-access
// time split of the no-overlap code for Tile I/O 1M at a given process
// count.
type BreakdownPoint struct {
	Platform   string
	NProcs     int
	CommShare  float64
	WriteShare float64
}

// RunBreakdown measures the communication / file-I/O split. The
// per-(platform, np) runs fan across up to parallel workers; points
// return in canonical enumeration order.
func RunBreakdown(procCounts []int, parallel int) ([]BreakdownPoint, error) {
	type bdCell struct {
		pf platform.Platform
		np int
	}
	var cells []bdCell
	for _, pf := range platform.Platforms() {
		for _, np := range procCounts {
			if np > pf.MaxProcs() {
				continue
			}
			cells = append(cells, bdCell{pf: pf, np: np})
		}
	}
	ms := make([]Metrics, len(cells))
	errs := make([]error, len(cells))
	forEach(parallel, len(cells), func(i int) {
		ms[i], errs[i] = Execute(Spec{
			Platform: cells[i].pf, NProcs: cells[i].np,
			Gen:       tileio.Tile1M(),
			Algorithm: fcoll.NoOverlap,
			Seed:      7,
		})
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	out := make([]BreakdownPoint, 0, len(cells))
	for i, c := range cells {
		m := ms[i]
		tot := float64(m.ShuffleTime + m.WriteTime)
		out = append(out, BreakdownPoint{
			Platform: c.pf.Name, NProcs: c.np,
			CommShare:  float64(m.ShuffleTime) / tot,
			WriteShare: float64(m.WriteTime) / tot,
		})
	}
	return out, nil
}
