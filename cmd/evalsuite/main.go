// Command evalsuite regenerates every table and figure of the
// reproduced paper's evaluation section (Feki & Gabriel, IPPS 2020) on
// the simulated crill and Ibex platforms:
//
//	table1    — Table I: best-overlap-algorithm win counts per benchmark
//	fig1      — Fig. 1: Tile I/O 1M execution times at two process counts
//	fig2      — Fig. 2: average positive improvement per algorithm, crill
//	fig3      — Fig. 3: average positive improvement per algorithm, Ibex
//	fig4      — Fig. 4: transfer-primitive win counts (+ §IV-B np trend)
//	breakdown — §IV-A: shuffle vs file-access time split, no-overlap code
//	all       — everything above
//	probe     — one instrumented Tile I/O 1M run (see -probe/-trace-json/-report)
//	scale     — multi-thousand-rank IOR sweep on ibex (see -ranks; not in "all")
//	select    — E12: auto-tuner vs fixed-algorithm policies (see -cache-file; not in "all")
//	hier      — E13: flat vs hierarchical two-level collective write (see -np; not in "all")
//
// -serve starts a long-lived auto-tuner query service on stdin instead
// of running an experiment: `select <platform> <workload> <np>` answers
// from the digest-keyed memo cache (cold queries sweep the design
// space, warm ones are O(lookup)), `stats` prints cache counters,
// `quit` — or SIGINT, which drains the in-flight sweep — flushes the
// -cache-file store and exits.
//
// Use -full for the extended sweep (larger process counts; slow) and
// -np to override Fig. 1 / breakdown process counts. The scale sweep
// takes its rank counts from -ranks (default 1024,2048,4096). The
// observability flags -probe, -trace-json, -report, -metrics and
// -metrics-out attach instrumentation to a single run (implying the
// probe experiment); -progress prints a live heartbeat for any sweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"collio/internal/cli"
	"collio/internal/exp"
	"collio/internal/fcoll"
	"collio/internal/metrics"
	"collio/internal/platform"
	"collio/internal/probe"
	"collio/internal/simnet"
	"collio/internal/stats"
	"collio/internal/tune"
	"collio/internal/workload/tileio"
)

func main() {
	var (
		which     = flag.String("exp", "all", "experiment: table1|fig1|fig2|fig3|fig4|breakdown|probe|scale|select|hier|all")
		full      = flag.Bool("full", false, "run the extended sweep (slow)")
		verbose   = flag.Bool("v", false, "print per-series progress")
		npFlag    = flag.String("np", "", "comma-separated process counts for fig1/breakdown (default 64,128; -full 256,576)")
		ranksFlag = flag.String("ranks", "", "comma-separated rank counts for the scale sweep (default 1024,2048,4096)")
		runs      = flag.Int("runs", 3, "measurements per series")
		jobs      = flag.Int("j", exp.DefaultParallelism(), "max simulations run in parallel (results are identical at any -j)")
		bundleF   = flag.Bool("bundle", false, "run the scale sweep on the bundled cohort executor (deterministic ibex scaled to the rank count; enables 100k-1M rank points, E11)")
		netmodelF = flag.String("netmodel", "chunked", "simnet transfer model for bundled scale points: chunked|flow")
		probeF    = flag.Bool("probe", false, "print the probe counter registry of the instrumented run")
		traceJSON = flag.String("trace-json", "", "write a Chrome/Perfetto trace of the instrumented run to `file`")
		report    = flag.Bool("report", false, "print a Darshan-style I/O report of the instrumented run")
		metricsF  = flag.Bool("metrics", false, "attach time-series telemetry to the instrumented run and print a per-series summary")
		metricsO  = flag.String("metrics-out", "", "write the instrumented run's telemetry to `base`.prom, base.csv and base.html")
		progressF = flag.Bool("progress", false, "print a live runs-completed/ETA heartbeat to stderr")
		serveF    = flag.Bool("serve", false, "run the long-lived auto-tuner query service on stdin (select/stats/quit; SIGINT drains and flushes)")
		cacheFile = flag.String("cache-file", "", "persist the auto-tuner memo cache as a JSON-lines store at `file` (select experiment and -serve)")
	)
	var prof cli.Profiler
	prof.RegisterFlags()
	flag.Parse()
	// Reject unknown experiment names up front. The historical check sat
	// at the bottom of main behind `if !ran` — but the observability
	// flags force the probe run, so `-exp tabel1 -probe` used to run the
	// wrong thing silently instead of failing.
	if err := validateExp(*which); err != nil {
		fatalf("%v", err)
	}
	netModel, ok := simnet.ParseNetModel(*netmodelF)
	if !ok {
		fatalf("unknown -netmodel %q (want chunked|flow)", *netmodelF)
	}
	if err := prof.Start(); err != nil {
		fatalf("profiling: %v", err)
	}

	if *progressF {
		pr := metrics.NewProgress("runs", os.Stderr)
		exp.SetProgress(pr)
		pr.Start()
		defer func() {
			pr.Stop()
			exp.SetProgress(nil)
		}()
	}

	// The tuner's grid and execution strategy, shared by -exp select and
	// -serve: -full widens the sweep to the one-sided primitives, -j /
	// -bundle apply exactly as they do to the scale sweep.
	tuneOpts := tune.Options{
		Parallel:  *jobs,
		Bundle:    *bundleF,
		CachePath: *cacheFile,
	}
	if *full {
		tuneOpts.Space = tune.FullSpace()
	}

	if *serveF {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		defer signal.Stop(sig)
		if err := runServe(os.Stdin, os.Stdout, sig, tuneOpts); err != nil {
			fatalf("serve: %v", err)
		}
		if err := prof.Stop(); err != nil {
			fatalf("profiling: %v", err)
		}
		return
	}

	obs := *probeF || *traceJSON != "" || *report || *metricsF || *metricsO != ""
	if obs {
		// Asking for observability output without naming an experiment
		// means "just the instrumented run", not the whole suite.
		expSet := false
		flag.Visit(func(f *flag.Flag) { expSet = expSet || f.Name == "exp" })
		if !expSet {
			*which = "probe"
		}
	}

	sweep := exp.QuickSweep()
	fig1NP := []int{64, 128}
	if *full {
		sweep = exp.FullSweep()
		fig1NP = []int{256, 576}
	}
	sweep.Runs = *runs
	sweep.Parallel = *jobs
	if *verbose {
		sweep.Progress = os.Stderr
	}
	if *npFlag != "" {
		fig1NP = nil
		for _, s := range strings.Split(*npFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fatalf("bad -np value %q", s)
			}
			fig1NP = append(fig1NP, n)
		}
	}

	// The scale sweep and the tuner experiment are opt-in only: minutes
	// of wall-clock that "all" (the laptop-scale paper reproduction)
	// should not pull in.
	want := func(name string) bool {
		if name == "scale" || name == "select" || name == "hier" {
			return *which == name
		}
		return *which == "all" || *which == name
	}
	ran := false

	if want("select") {
		ran = true
		if err := runSelectExperiment(os.Stdout, fig1NP, tuneOpts); err != nil {
			fatalf("select: %v", err)
		}
	}

	if want("hier") {
		ran = true
		// E13's canonical cells are the paper's 576-rank points plus the
		// 4096-rank tier; -np overrides both.
		hierNP := []int{576, 4096}
		if *npFlag != "" {
			hierNP = fig1NP
		}
		if err := runHierExperiment(os.Stdout, hierNP, *jobs, progress(*verbose)); err != nil {
			fatalf("hier: %v", err)
		}
	}

	if want("scale") {
		ran = true
		cfg := exp.DefaultScaleConfig()
		cfg.Bundle = *bundleF
		cfg.NetModel = netModel
		if *ranksFlag != "" {
			cfg.RankCounts = nil
			for _, s := range strings.Split(*ranksFlag, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n <= 0 {
					fatalf("bad -ranks value %q", s)
				}
				cfg.RankCounts = append(cfg.RankCounts, n)
			}
		}
		if *verbose {
			cfg.Progress = os.Stderr
		}
		pts, err := exp.RunScaleSweep(cfg)
		if err != nil {
			fatalf("scale sweep: %v", err)
		}
		head := []string{"np", "Algorithm", "Simulated", "File volume", "Host wall-clock", "Peak RSS"}
		var rows [][]string
		for _, p := range pts {
			rows = append(rows, []string{
				strconv.Itoa(p.NProcs), p.Algorithm, p.Elapsed.String(),
				fmt.Sprintf("%.0f MiB", float64(p.Bytes)/(1<<20)),
				p.Wall.Round(time.Millisecond).String(),
				fmt.Sprintf("%d MiB", p.PeakRSS>>20),
			})
		}
		title := "SCALE — IOR collective write on ibex (1 MiB per rank, one run per point)"
		if *bundleF {
			title = fmt.Sprintf("SCALE — IOR collective write, bundled cohort executor on deterministic ibex (-netmodel %v)", netModel)
		}
		fmt.Println(stats.RenderTable(title, head, rows))
		fmt.Println()
	}

	if want("table1") || want("fig2") || want("fig3") {
		ran = true
		res, err := exp.RunTableISweep(sweep)
		if err != nil {
			fatalf("table1 sweep: %v", err)
		}
		if want("table1") {
			fmt.Println(res.Wins.Table("TABLE I — number of series in which an overlap algorithm was fastest"))
			async := 0
			for _, a := range fcoll.Algorithms {
				if a.UsesAsyncWrite() {
					async += res.Wins.TotalFor(a.String())
				}
			}
			fmt.Printf("series: %d; won by an async-write algorithm: %d (%.0f%%); by no-overlap: %d (%.0f%%)\n\n",
				res.Series, async, 100*float64(async)/float64(res.Series),
				res.Wins.TotalFor(fcoll.NoOverlap.String()),
				100*float64(res.Wins.TotalFor(fcoll.NoOverlap.String()))/float64(res.Series))
		}
		for _, figure := range []struct {
			name, pf, title string
		}{
			{"fig2", "crill", "FIG. 2 — average positive improvement over no-overlap, crill"},
			{"fig3", "ibex", "FIG. 3 — average positive improvement over no-overlap, ibex"},
		} {
			if !want(figure.name) {
				continue
			}
			im := res.Improvements[figure.pf]
			head := []string{"Benchmark"}
			for _, a := range fcoll.Algorithms[1:] {
				head = append(head, a.String())
			}
			var rows [][]string
			for _, g := range im.Groups() {
				row := []string{g}
				for _, a := range fcoll.Algorithms[1:] {
					if v, ok := im.Average(g, a.String()); ok {
						row = append(row, fmt.Sprintf("%.1f%%", 100*v))
					} else {
						row = append(row, "-")
					}
				}
				rows = append(rows, row)
			}
			fmt.Println(stats.RenderTable(figure.title, head, rows))
			fmt.Println()
		}
	}

	if want("fig1") {
		ran = true
		pts, err := exp.RunFig1(fig1NP, *runs, *jobs, progress(*verbose))
		if err != nil {
			fatalf("fig1: %v", err)
		}
		head := []string{"Platform", "np", "Algorithm", "Min time", "vs no-overlap"}
		var rows [][]string
		base := map[string]float64{}
		for _, p := range pts {
			key := p.Platform + "/" + strconv.Itoa(p.NProcs)
			if p.Algorithm == fcoll.NoOverlap.String() {
				base[key] = float64(p.Min)
			}
		}
		for _, p := range pts {
			key := p.Platform + "/" + strconv.Itoa(p.NProcs)
			imp := (base[key] - float64(p.Min)) / base[key]
			rows = append(rows, []string{
				p.Platform, strconv.Itoa(p.NProcs), p.Algorithm,
				p.Min.String(), fmt.Sprintf("%+.1f%%", 100*imp),
			})
		}
		fmt.Println(stats.RenderTable("FIG. 1 — Tile I/O 1M execution time (min of series)", head, rows))
		fmt.Println()
	}

	if want("fig4") {
		ran = true
		res, err := exp.RunFig4Sweep(sweep)
		if err != nil {
			fatalf("fig4: %v", err)
		}
		fmt.Println(res.Wins.Table("FIG. 4 — number of series in which a transfer primitive was fastest (Write-Comm-2)"))
		two := res.Wins.TotalFor(fcoll.TwoSided.String())
		fmt.Printf("two-sided share: %.0f%% of %d series\n",
			100*float64(two)/float64(res.Wins.GrandTotal()), res.Wins.GrandTotal())
		if res.CrillSmallTotal > 0 && res.CrillLargeTotal > 0 {
			fmt.Printf("crill one-sided wins: np<256: %d/%d; np>=256: %d/%d (§IV-B trend)\n",
				res.CrillSmallOneSided, res.CrillSmallTotal,
				res.CrillLargeOneSided, res.CrillLargeTotal)
		}
		fmt.Println()
	}

	if want("breakdown") {
		ran = true
		pts, err := exp.RunBreakdown(fig1NP, *jobs)
		if err != nil {
			fatalf("breakdown: %v", err)
		}
		head := []string{"Platform", "np", "comm share", "file I/O share"}
		var rows [][]string
		for _, p := range pts {
			rows = append(rows, []string{
				p.Platform, strconv.Itoa(p.NProcs),
				fmt.Sprintf("%.0f%%", 100*p.CommShare),
				fmt.Sprintf("%.0f%%", 100*p.WriteShare),
			})
		}
		fmt.Println(stats.RenderTable("§IV-A — shuffle vs file-access time split (no-overlap, Tile I/O 1M)", head, rows))
		fmt.Println()
	}

	if want("probe") || obs {
		ran = true
		if err := probeRun(os.Stdout, fig1NP[0], *probeF, *traceJSON, *report, *metricsF, *metricsO); err != nil {
			fatalf("probe run: %v", err)
		}
	}

	if !ran {
		// Unreachable for experiment-name reasons (validateExp runs
		// first); kept as a guard for future want() logic changes.
		fatalf("experiment %q selected nothing to run", *which)
	}
	if err := prof.Stop(); err != nil {
		fatalf("profiling: %v", err)
	}
}

// validExperiments is the closed set of -exp names, in help order.
var validExperiments = []string{
	"table1", "fig1", "fig2", "fig3", "fig4", "breakdown", "probe", "scale", "select", "hier", "all",
}

// validateExp rejects unknown -exp names with the full list of valid
// ones, before any flag combination can reinterpret the selection.
func validateExp(name string) error {
	for _, v := range validExperiments {
		if name == v {
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(validExperiments, "|"))
}

// probeRun executes one instrumented Tile I/O 1M collective write
// (crill, write-comm-2-overlap, two-sided) and writes the requested
// observability artefacts, text ones to out. With no output flag it
// prints the counter registry so `-exp probe` alone is not silent.
func probeRun(out io.Writer, np int, counters bool, traceJSON string, report bool, metricsF bool, metricsOut string) error {
	p := probe.New()
	var met *metrics.Metrics
	if metricsF || metricsOut != "" {
		met = metrics.New(0)
	}
	spec := exp.Spec{
		Platform:  platform.Crill(),
		NProcs:    np,
		Gen:       tileio.Tile1M(),
		Algorithm: fcoll.WriteComm2Overlap,
		Primitive: fcoll.TwoSided,
		Seed:      1,
		Probe:     p,
		Metrics:   met,
	}
	if _, err := exp.Execute(spec); err != nil {
		return err
	}
	return cli.Artefacts{
		Probe:      p,
		Metrics:    met,
		Title:      fmt.Sprintf("tileio-1m write-comm-2-overlap/two-sided np=%d", np),
		Label:      fmt.Sprintf("tileio-1m, np=%d", np),
		TraceJSON:  traceJSON,
		Report:     report,
		Counters:   counters || (traceJSON == "" && !report && !metricsF && metricsOut == ""),
		Summary:    metricsF,
		MetricsOut: metricsOut,
	}.Write(out)
}

func progress(verbose bool) *os.File {
	if verbose {
		return os.Stderr
	}
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "evalsuite: "+format+"\n", args...)
	os.Exit(1)
}
