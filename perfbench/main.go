// Command perfbench is collio's end-to-end and per-layer benchmark. It
// runs one named workload through the program's public entry points
// (exp.Execute, tune.Tuner.Select), checks every output, and prints the
// workload's metrics by name with their units. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload paper-grid -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the run measures the end-to-end metrics with no
// instrumentation. With -trace 1 it runs the workload once untraced and
// once with a span around every call it makes into a layer's public
// function, the program's probe and metrics sinks attached, and prints
// the per-layer metrics; the spans and per-layer self times are written
// to a JSON file under -out. See README.md for the workloads, the
// metrics and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few small ops (the self-test).
	tiny bool
	// plantBadBytes raises the expected byte count of one op by one
	// byte, so the correctness gate must fail it (the self-test).
	plantBadBytes bool
	// out is where span files and tuner stores go.
	out string
}

// benchWorkload is one named benchmark input set.
type benchWorkload struct {
	name string
	// why is the one-line reason the workload exists.
	why string
	// measure runs the untraced end-to-end measurement.
	measure func(o options, r *report) error
	// traced runs the traced per-layer measurement.
	traced func(o options, r *report, tr *tracer, acc *acc) error
}

var workloads = []*benchWorkload{paperGrid, readGrid, scaleBundled, selectHier}

func findWorkload(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: drives the base Spec.Seed and the order of ops")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement budget in seconds; whole passes of the workload repeat until it is spent")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics untraced; 1: traced run printing per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every workload to a few small ops")
	fs.BoolVar(&o.plantBadBytes, "plant-bad-bytes", false, "expect one byte too many from one op (the correctness gate must fail it)")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for span files and tuner stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(o.workload)
	if w == nil || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	o.trace = trace == 1
	// Ops run one after another from this goroutine; only the tuner's
	// sweep pool uses more than one worker, and never more than two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	r := &report{workload: w.name}
	var err error
	if o.trace {
		tr := newTracer()
		a := newAcc()
		if err = w.traced(o, r, tr, a); err == nil {
			r.layerMetrics(a)
			r.checkCoverage()
			err = r.writeSpans(o, tr, a)
		}
	} else {
		err = w.measure(o, r)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r.print(stdout, o.trace)
	if r.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report collects one run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	// failures names each failed op or check (printed, capped).
	failures []string
	// notes are informational lines printed before the result.
	notes []string
	// values holds the printed metrics by name; extra holds metrics that
	// are printed for reading but are not part of the JSON result.
	values map[string]float64
	extra  []string
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// metricValue is one entry of the JSON result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable lines and, last, the JSON result.
func (r *report) print(w io.Writer, traced bool) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	const maxFailures = 20
	for i, f := range r.failures {
		if i == maxFailures {
			fmt.Fprintf(w, "FAIL: ... %d more\n", len(r.failures)-maxFailures)
			break
		}
		fmt.Fprintln(w, "FAIL:", f)
	}
	defs := endToEnd
	if traced {
		defs = nil
		for _, d := range perLayer {
			defs = append(defs, d.metricDef)
		}
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v := r.values[d.name]
		out[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(w, "%-8s %-26s %14.6g %s\n", r.workload, d.name, v, d.unit)
	}
	for _, e := range r.extra {
		fmt.Fprintf(w, "%-8s %s\n", r.workload, e)
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out}
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run. failed_frac and
// op_p90_ms are printed too but are not part of the JSON result:
// failed_frac is 0 on a correct run (the result's "failed" and
// "attempted" carry it) and op_p90_ms exists only where a run times at
// least 100 ops.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"sim_ms", "sim-ms", "lower"},
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_mib_per_op", "MiB", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// hdMedian is the Harrell-Davis estimate of the median of xs (0 for
// none): a mean of the order statistics weighted by a Beta((n+1)/2,
// (n+1)/2) distribution. Where the sample median reads one or two
// values — on a workload whose ops fall into a few cost groups, values
// from two different groups — this one reads the middle of the sample,
// so it moves far less from one run to the next.
func hdMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Weight i is the Beta mass on [i/n, (i+1)/n], integrated by the
	// midpoint rule. The density is taken relative to its peak at 1/2,
	// so it cannot underflow there, and the weights are renormalised.
	const steps = 64
	a := float64(n+1) / 2
	h := 1 / float64(n*steps)
	var sumW, sumWX float64
	for i, x := range s {
		var w float64
		for k := 0; k < steps; k++ {
			u := (float64(i*steps+k) + 0.5) * h
			w += math.Exp((a - 1) * math.Log(4*u*(1-u)))
		}
		sumW += w
		sumWX += w * x
	}
	return sumWX / sumW
}
