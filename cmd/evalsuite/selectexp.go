package main

import (
	"fmt"
	"io"
	"strconv"

	"collio/internal/exp"
	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/stats"
	"collio/internal/tune"
	"collio/internal/workload"
)

// runSelectExperiment is E12: the auto-tuner versus every fixed-
// algorithm policy. For each (platform × workload × np) cell it runs
// tune.Select over the design space, reports the predicted-best
// configuration, and tallies how often the tuner strictly beats a
// policy that always picks one fixed algorithm (at that algorithm's
// own best buffer size / aggregator count — the strongest version of
// the fixed policy). The tuner picks the minimum over a superset, so
// it never loses; the interesting number is how often "always
// algorithm X" leaves time on the table.
//
// Cells the platform cannot host (np beyond MaxProcs) report n/a and
// are excluded from the tally, as are cells the host cannot afford:
// beyond exactCellNP ranks a sweep is only attempted when the bundled
// fast path will actually engage on every point (sweepBundles) — a
// single exact flashio run at 4096 ranks exceeds ten minutes of host
// time, so a 10-config exact sweep of that cell is an hours-long job
// this driver refuses rather than silently starts.
// exactCellNP is the largest rank count at which an exact-executor
// design-space sweep is still a minutes-scale job on one host core
// (the paper's own 576-rank points sweep in ~5 min; 4096 exact is
// hours). Cells beyond it require the bundled fast path.
const exactCellNP = 1024

func runSelectExperiment(out io.Writer, npList []int, opts tune.Options) error {
	t, err := tune.New(opts)
	if err != nil {
		return err
	}
	defer t.Close()

	type cellID struct {
		pf  platform.Platform
		wl  string
		gen workload.Generator
		np  int
	}
	var cells []cellID
	for _, np := range npList {
		for _, pf := range platform.Platforms() {
			for _, name := range serveWorkloadNames {
				if name == "tileio-256" {
					continue // paper's three benchmarks: ior, tileio-1m, flashio
				}
				gen, _ := serveWorkload(name)
				cells = append(cells, cellID{pf: pf, wl: name, gen: gen, np: np})
			}
		}
	}

	wins := map[string]int{}
	ties := map[string]int{}
	tallied := 0
	head := []string{"Platform", "Workload", "np", "Best configuration", "Predicted", "Cache"}
	var rows [][]string
	for _, c := range cells {
		if c.np > exactCellNP && c.np <= c.pf.MaxProcs() && !sweepBundles(opts, c.gen, c.pf, c.np) {
			rows = append(rows, []string{c.pf.Name, c.wl, strconv.Itoa(c.np),
				"n/a (exact-path sweep impractical at this np; see E12 notes)", "-", "-"})
			continue
		}
		sel, err := t.Select(c.gen, c.pf, c.np)
		if err != nil {
			rows = append(rows, []string{c.pf.Name, c.wl, strconv.Itoa(c.np),
				fmt.Sprintf("n/a (%v)", err), "-", "-"})
			continue
		}
		b := sel.Best
		rows = append(rows, []string{
			c.pf.Name, c.wl, strconv.Itoa(c.np),
			fmt.Sprintf("%s/%s cb=%dMiB agg=%d", b.Config.Algorithm, b.Config.Primitive,
				b.Config.BufferSize>>20, b.Config.Aggregators),
			b.Result.Elapsed.String(),
			fmt.Sprintf("%d/%d hit", sel.Hits, sel.Evaluated),
		})
		// Best the fixed policy "always algorithm a" could do in this
		// cell, minimized over the remaining axes.
		tallied++
		for _, a := range normalizedAlgorithms(opts.Space) {
			bestFixed := int64(-1)
			for _, cand := range sel.Candidates {
				if cand.Err != nil || cand.Config.Algorithm != a {
					continue
				}
				if bestFixed < 0 || int64(cand.Result.Elapsed) < bestFixed {
					bestFixed = int64(cand.Result.Elapsed)
				}
			}
			if bestFixed < 0 {
				continue // algorithm infeasible in this cell
			}
			if int64(b.Result.Elapsed) < bestFixed {
				wins[a.String()]++
			} else {
				ties[a.String()]++
			}
		}
	}
	title := fmt.Sprintf("SELECT — auto-tuned configuration per cell (%d-point space)", opts.Space.Size())
	fmt.Fprintln(out, stats.RenderTable(title, head, rows))
	fmt.Fprintln(out)

	whead := []string{"Fixed policy", "Tuner wins", "Ties", "Cells"}
	var wrows [][]string
	for _, a := range normalizedAlgorithms(opts.Space) {
		n := a.String()
		wrows = append(wrows, []string{
			"always " + n, strconv.Itoa(wins[n]), strconv.Itoa(ties[n]),
			strconv.Itoa(wins[n] + ties[n]),
		})
	}
	fmt.Fprintln(out, stats.RenderTable(
		fmt.Sprintf("E12 — tuner vs fixed-algorithm policies (%d cells; a tie means the policy's best point matches the tuner's)", tallied),
		whead, wrows))
	return nil
}

// sweepBundles reports whether every point Select sweeps in a cell
// runs on the bundled executor, as exp's executor decision has it: -bundle
// is set, and no point is one-sided or hierarchical, on a noisy
// platform, or over a workload whose plan does not collapse into
// cohorts. The decision builds views and plans but simulates nothing.
func sweepBundles(opts tune.Options, gen workload.Generator, pf platform.Platform, np int) bool {
	cgen, ok := gen.(workload.Canonical)
	if !opts.Bundle || !ok {
		return false
	}
	if !opts.Noisy {
		pf = pf.Deterministic() // as Select normalizes it
	}
	for _, cfg := range opts.Space.Configs(exp.Config{Platform: pf, Workload: cgen, NProcs: np, Bundled: true}) {
		if e, err := exp.ExecutorFor(cfg.Spec()); err != nil || e != exp.BundledExecutor {
			return false
		}
	}
	return true
}

// normalizedAlgorithms returns the algorithm axis the sweep actually
// used (the Space default when unset).
func normalizedAlgorithms(s tune.Space) []fcoll.Algorithm {
	if len(s.Algorithms) > 0 {
		return s.Algorithms
	}
	return fcoll.Algorithms
}
