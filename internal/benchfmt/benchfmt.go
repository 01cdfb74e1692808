// Package benchfmt parses the text output of `go test -bench` into
// structured records so the Makefile's bench target can emit a
// machine-readable perf trajectory (BENCH_*.json) alongside the
// human-readable stream. Only the stable line format documented in
// the testing package is understood:
//
//	BenchmarkName-8   	     100	  12345 ns/op	  67 B/op	  2 allocs/op	  89.5 sim-ms/op
//
// plus the `key: value` header lines (goos, goarch, pkg, cpu).
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix removed
	// (Benchmark prefix kept, sub-benchmark path intact).
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix, 1 if absent.
	Procs int `json:"procs"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every "value unit" pair on the
	// line (ns/op, B/op, allocs/op, custom b.ReportMetric units like
	// sim-ms/op). A folded row (Fold) holds each unit's median.
	Metrics map[string]float64 `json:"metrics"`
	// Samples is the number of rows Fold merged into this one, zero for
	// a benchmark reported once; Q1 and Q3 then hold each unit's lower
	// and upper quartile, and Iterations the total over the samples.
	Samples int                `json:"samples,omitempty"`
	Q1      map[string]float64 `json:"q1,omitempty"`
	Q3      map[string]float64 `json:"q3,omitempty"`
}

// Run is a parsed benchmark stream.
type Run struct {
	// Env holds the header key/value lines (goos, goarch, pkg, cpu).
	// Later packages overwrite pkg, matching `go test ./...` output.
	Env map[string]string `json:"env,omitempty"`
	// Results lists benchmark lines in input order.
	Results []Result `json:"results"`
}

// headerKeys are the `key: value` prefixes the testing package emits.
var headerKeys = map[string]bool{"goos": true, "goarch": true, "pkg": true, "cpu": true}

// Parse reads a `go test -bench` stream. Unrecognised lines (PASS,
// ok, test log output) are skipped; a malformed Benchmark line is an
// error so silent truncation cannot masquerade as a short run.
func Parse(r io.Reader) (*Run, error) {
	run := &Run{Env: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ": "); ok && headerKeys[k] {
			run.Env[k] = strings.TrimSpace(v)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		run.Results = append(run.Results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return run, nil
}

func parseLine(line string) (Result, error) {
	fields := strings.Fields(line)
	// name, iterations, then (value, unit) pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, fmt.Errorf("benchfmt: malformed benchmark line %q", line)
	}
	res := Result{Name: fields[0], Procs: 1, Metrics: map[string]float64{}}
	if i := strings.LastIndex(res.Name, "-"); i >= 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil && p > 0 {
			res.Procs = p
			res.Name = res.Name[:i]
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("benchfmt: bad iteration count in %q: %v", line, err)
	}
	res.Iterations = n
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("benchfmt: bad metric value in %q: %v", line, err)
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, nil
}

// Fold merges the repeated rows of each benchmark — same name and
// procs, as `go test -count N` prints them — into one row at the
// benchmark's first position, holding the median, quartiles and sample
// count of every unit (see Result). Quantiles interpolate linearly
// between order statistics, so five samples give the 2nd, 3rd and 4th
// smallest. A benchmark reported once is left as it is.
func (run *Run) Fold() {
	groups := map[string][]Result{}
	var order []string
	for _, r := range run.Results {
		k := key(r)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]Result, 0, len(order))
	for _, k := range order {
		rows := groups[k]
		if len(rows) == 1 {
			out = append(out, rows[0])
			continue
		}
		f := Result{Name: rows[0].Name, Procs: rows[0].Procs, Samples: len(rows),
			Metrics: map[string]float64{}, Q1: map[string]float64{}, Q3: map[string]float64{}}
		vals := map[string][]float64{}
		for _, r := range rows {
			f.Iterations += r.Iterations
			for u, v := range r.Metrics {
				vals[u] = append(vals[u], v)
			}
		}
		for u, vs := range vals {
			sort.Float64s(vs)
			f.Q1[u], f.Metrics[u], f.Q3[u] = quantile(vs, 0.25), quantile(vs, 0.5), quantile(vs, 0.75)
		}
		out = append(out, f)
	}
	run.Results = out
}

// quantile returns the p-quantile of sorted vs, interpolated linearly
// at rank p·(n−1).
func quantile(vs []float64, p float64) float64 {
	pos := p * float64(len(vs)-1)
	i := int(pos)
	if i+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
}
