// Package cli implements the shared command-line driver of the
// benchmark tools (iorbench, tileio, flashio): flag handling for
// platform, process count, overlap algorithm, transfer primitive and
// series length, plus result formatting in the style of the original
// benchmarks (bandwidth + timing summary).
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"collio/internal/exp"
	"collio/internal/fcoll"
	"collio/internal/metrics"
	mexport "collio/internal/metrics/export"
	"collio/internal/platform"
	"collio/internal/probe"
	"collio/internal/probe/export"
	"collio/internal/stats"
	"collio/internal/trace"
	"collio/internal/workload"
)

// Common holds the flags shared by all benchmark tools.
type Common struct {
	Platform   string
	NProcs     int
	Algorithm  string
	Primitive  string
	Runs       int
	Jobs       int
	Seed       int64
	BufferMB   int
	AllAlgos   bool
	Read       bool
	Trace      bool
	Probe      bool
	TraceJSON  string
	Report     bool
	Metrics    bool
	MetricsOut string
	Progress   bool
	Prof       Profiler
}

// RegisterFlags installs the common flags on the default FlagSet.
func (c *Common) RegisterFlags() {
	flag.StringVar(&c.Platform, "platform", "crill", "platform model: crill|ibex")
	flag.IntVar(&c.NProcs, "np", 64, "number of MPI ranks")
	flag.StringVar(&c.Algorithm, "algo", "write-comm-2-overlap", "overlap algorithm: "+algoList())
	flag.StringVar(&c.Primitive, "primitive", "two-sided", "shuffle primitive: two-sided|one-sided-fence|one-sided-lock")
	flag.IntVar(&c.Runs, "runs", 3, "measurements per series")
	flag.IntVar(&c.Jobs, "j", exp.DefaultParallelism(), "max simulations run in parallel (results are identical at any -j)")
	flag.IntVar(&c.Jobs, "parallel", exp.DefaultParallelism(), "alias for -j")
	flag.Int64Var(&c.Seed, "seed", 1, "base random seed")
	flag.IntVar(&c.BufferMB, "buffer", 32, "collective buffer size in MiB")
	flag.BoolVar(&c.AllAlgos, "all", false, "run every overlap algorithm and compare")
	flag.BoolVar(&c.Read, "read", false, "run collective reads instead of writes")
	flag.BoolVar(&c.Trace, "trace", false, "print a per-rank phase timeline of one run")
	flag.BoolVar(&c.Probe, "probe", false, "attach event probes to one run and print the counter registry")
	flag.StringVar(&c.TraceJSON, "trace-json", "", "write a Chrome/Perfetto trace of one run to `file`")
	flag.BoolVar(&c.Report, "report", false, "print a Darshan-style I/O report (with stall attribution) of one run")
	flag.BoolVar(&c.Metrics, "metrics", false, "attach time-series telemetry to one run and print a per-series summary")
	flag.StringVar(&c.MetricsOut, "metrics-out", "", "write one run's telemetry to `base`.prom (Prometheus text), base.csv (timeseries) and base.html (dashboard)")
	flag.BoolVar(&c.Progress, "progress", false, "print a live runs-completed/ETA heartbeat to stderr during the series")
	c.Prof.RegisterFlags()
}

func algoList() string {
	var names []string
	for _, a := range fcoll.Algorithms {
		names = append(names, a.String())
	}
	return strings.Join(names, "|")
}

// ResolvePlatform maps the -platform flag to a model.
func (c *Common) ResolvePlatform() (platform.Platform, error) {
	for _, pf := range platform.Platforms() {
		if pf.Name == c.Platform {
			return pf, nil
		}
	}
	return platform.Platform{}, fmt.Errorf("unknown platform %q (want crill or ibex)", c.Platform)
}

// ResolveAlgorithm maps the -algo flag to an Algorithm.
func (c *Common) ResolveAlgorithm() (fcoll.Algorithm, error) {
	for _, a := range fcoll.Algorithms {
		if a.String() == c.Algorithm {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (want %s)", c.Algorithm, algoList())
}

// ResolvePrimitive maps the -primitive flag to a Primitive.
func (c *Common) ResolvePrimitive() (fcoll.Primitive, error) {
	for _, p := range fcoll.Primitives {
		if p.String() == c.Primitive {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown primitive %q", c.Primitive)
}

// RunBenchmark executes the generator under the common flags and prints
// an IOR-style summary. With -all it compares every overlap algorithm.
// The -cpuprofile/-memprofile outputs cover the whole execution.
func (c *Common) RunBenchmark(gen workload.Generator) (err error) {
	if err := c.Prof.Start(); err != nil {
		return err
	}
	defer func() {
		if e := c.Prof.Stop(); err == nil {
			err = e
		}
	}()
	pf, err := c.ResolvePlatform()
	if err != nil {
		return err
	}
	prim, err := c.ResolvePrimitive()
	if err != nil {
		return err
	}
	algos := []fcoll.Algorithm{}
	if c.AllAlgos {
		algos = append(algos, fcoll.Algorithms...)
	} else {
		a, err := c.ResolveAlgorithm()
		if err != nil {
			return err
		}
		algos = append(algos, a)
	}

	total := gen.TotalBytes(c.NProcs)
	mode := "write"
	if c.Read {
		mode = "read"
	}
	fmt.Printf("benchmark : %s (collective %s)\n", gen.Name(), mode)
	fmt.Printf("platform  : %s (%d ranks, %d per node)\n", pf.Name, c.NProcs, pf.RanksPerNode)
	fmt.Printf("data      : %.1f MiB total (%.1f MiB per rank)\n",
		float64(total)/(1<<20), float64(total)/float64(c.NProcs)/(1<<20))
	fmt.Printf("collective: buffer %d MiB, primitive %s, %d-run series\n\n", c.BufferMB, prim, c.Runs)

	if c.Progress {
		pr := metrics.NewProgress("runs", os.Stderr)
		exp.SetProgress(pr)
		pr.Start()
		defer func() {
			pr.Stop()
			exp.SetProgress(nil)
		}()
	}

	head := []string{"Algorithm", "Min", "Mean", "StdDev", "Bandwidth"}
	var rows [][]string
	for _, algo := range algos {
		spec := exp.Spec{
			Platform:   pf,
			NProcs:     c.NProcs,
			Gen:        gen,
			Algorithm:  algo,
			Primitive:  prim,
			BufferSize: int64(c.BufferMB) << 20,
			Read:       c.Read,
		}
		s, err := exp.RunSeriesP(spec, c.Runs, c.Seed, c.Jobs)
		if err != nil {
			return err
		}
		bw := float64(total) / s.Min().Seconds() / (1 << 20)
		rows = append(rows, []string{
			algo.String(), s.Min().String(), s.Mean().String(),
			fmt.Sprintf("%.2gs", s.StdDev()),
			fmt.Sprintf("%.1f MiB/s", bw),
		})
	}
	fmt.Println(stats.RenderTable("", head, rows))

	if c.Trace || c.Probe || c.TraceJSON != "" || c.Report || c.Metrics || c.MetricsOut != "" {
		// One instrumented run with the last algorithm in the table.
		algo := algos[len(algos)-1]
		tr := trace.New()
		var p *probe.Probe
		// -metrics-out also attaches a probe: the dashboard's per-OST
		// stall column comes from the probe's stall attribution.
		if c.Probe || c.TraceJSON != "" || c.Report || c.MetricsOut != "" {
			p = probe.New()
		}
		var met *metrics.Metrics
		if c.Metrics || c.MetricsOut != "" {
			met = metrics.New(0)
		}
		spec := exp.Spec{
			Platform:   pf,
			NProcs:     c.NProcs,
			Gen:        gen,
			Algorithm:  algo,
			Primitive:  prim,
			BufferSize: int64(c.BufferMB) << 20,
			Read:       c.Read,
			Seed:       c.Seed,
			Trace:      tr,
			Probe:      p,
			Metrics:    met,
		}
		if _, err := exp.Execute(spec); err != nil {
			return err
		}
		if c.Trace {
			fmt.Printf("phase timeline (%v):\n%s", algo, tr.Timeline(100))
		}
		return Artefacts{
			Probe:      p,
			Metrics:    met,
			Title:      fmt.Sprintf("%s %s/%s np=%d seed=%d", gen.Name(), algo, prim, c.NProcs, c.Seed),
			Label:      fmt.Sprintf("%v, seed %d", algo, c.Seed),
			TraceJSON:  c.TraceJSON,
			Report:     c.Report,
			Counters:   c.Probe,
			Summary:    c.Metrics,
			MetricsOut: c.MetricsOut,
		}.Write(os.Stdout)
	}
	return nil
}

// Artefacts is the observability output of one instrumented run, shared
// by the benchmark tools and evalsuite's probe experiment.
type Artefacts struct {
	Probe   *probe.Probe
	Metrics *metrics.Metrics
	// Title heads the report and the dashboard; Label tags the counter
	// and summary headers.
	Title, Label string

	TraceJSON  string // Perfetto trace file ("" = none)
	Report     bool   // stall-attribution report
	Counters   bool   // probe counter registry
	Summary    bool   // metrics summary
	MetricsOut string // base path of the .prom/.csv/.html snapshot ("" = none)
}

// Write writes the requested artefacts: files where a path is given,
// the rest to out. The metrics snapshot is three files: base.prom,
// base.csv and the self-contained base.html dashboard, whose per-OST
// stall column reuses the probe's stall attribution (keeping it
// consistent with the report).
func (a Artefacts) Write(out io.Writer) error {
	if a.TraceJSON != "" {
		if err := writeFile(a.TraceJSON, func(w io.Writer) error { return export.WriteTrace(w, a.Probe) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d probe events to %s (load in ui.perfetto.dev)\n", len(a.Probe.Events()), a.TraceJSON)
	}
	if a.Report {
		if err := export.WriteReport(out, a.Probe, export.ReportOptions{Title: a.Title}); err != nil {
			return err
		}
	}
	if a.Counters {
		fmt.Fprintf(out, "probe counters (%s):\n%s", a.Label, a.Probe.Counters())
	}
	if a.Summary {
		fmt.Fprintf(out, "metrics summary (%s):\n", a.Label)
		if err := mexport.WriteSummary(out, a.Metrics); err != nil {
			return err
		}
	}
	if a.MetricsOut == "" {
		return nil
	}
	dash := mexport.DashOptions{Title: a.Title}
	if a.Probe != nil {
		dash.OSTStall = make(map[int]int64)
		for tgt, d := range export.AttributeOST(a.Probe) {
			dash.OSTStall[tgt] = int64(d)
		}
	}
	for _, f := range []struct {
		ext    string
		render func(io.Writer) error
	}{
		{".prom", func(w io.Writer) error { return mexport.WriteProm(w, a.Metrics) }},
		{".csv", func(w io.Writer) error { return mexport.WriteCSV(w, a.Metrics) }},
		{".html", func(w io.Writer) error { return mexport.WriteDashboard(w, a.Metrics, dash) }},
	} {
		if err := writeFile(a.MetricsOut+f.ext, f.render); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote metrics snapshot to %s.{prom,csv,html}\n", a.MetricsOut)
	return nil
}

// writeFile creates path and renders into it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Fatal prints err and exits non-zero.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}
