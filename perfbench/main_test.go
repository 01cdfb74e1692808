package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
}

// runTiny runs one workload at its tiny size and returns the exit code,
// the output and the parsed JSON result (its last line).
func runTiny(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"-tiny", "-seconds", "0.2", "-out", t.TempDir()}, args...)
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the JSON result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	return code, out.String(), res
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTablesMatchBenchmarkFile pins the program's workload and metric
// tables to BENCHMARK.json.
func TestTablesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	var layer []metricDef
	for _, m := range perLayer {
		layer = append(layer, m.metricDef)
	}
	check("per_layer", layer, f.PerLayer)
}

// TestEveryMetricPrinted runs every workload at its tiny size, untraced
// and traced, and checks that each prints every metric BENCHMARK.json
// names, with its unit, and nothing else, with every op correct and the
// traced run's layer-coverage check passing.
func TestEveryMetricPrinted(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, out, res := runTiny(t, "-workload", w.name, "-trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: exit %d, correct %v, %d of %d failed\n%s", w.name, trace, code, res.Correct, res.Failed, res.Attempted, out)
			}
			want := f.EndToEnd
			if trace == "1" {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), want unit %q", w.name, trace, m.Name, got, ok, m.Unit)
				}
				if trace == "0" && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
		}
	}
}

// TestPlantedWrongByteCountFails plants a wrong expected byte count in
// one op of every workload: the run must count it in failed_frac, report
// itself incorrect and exit non-zero.
func TestPlantedWrongByteCountFails(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, out, res := runTiny(t, "-workload", w.name, "-trace", trace, "-plant-bad-bytes")
			if code == 0 || res.Correct || res.Failed < 1 {
				t.Errorf("%s trace %s: planted wrong byte count not caught: exit %d, correct %v, failed %d\n%s",
					w.name, trace, code, res.Correct, res.Failed, out)
			}
			if frac := failedFrac(out); frac <= 0 {
				t.Errorf("%s trace %s: failed_frac = %v, want > 0\n%s", w.name, trace, frac, out)
			}
		}
	}
}

// failedFrac reads the printed failed_frac line.
func failedFrac(out string) float64 {
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[1] == "failed_frac" {
			v, _ := strconv.ParseFloat(fields[2], 64)
			return v
		}
	}
	return -1
}

// TestSeedHandling checks that the seed reaches the noisy platforms
// (paper-grid's simulated time changes with it) and that the noise-free
// workloads' simulated time does not.
func TestSeedHandling(t *testing.T) {
	for _, w := range []struct {
		name      string
		noiseFree bool
	}{{"paper-grid", false}, {"scale-bundled", true}, {"select-hier", true}} {
		var sims []float64
		for _, seed := range []string{"1", "2"} {
			_, out, res := runTiny(t, "-workload", w.name, "-seed", seed, "-trace", "0")
			if !res.Correct {
				t.Fatalf("%s seed %s failed:\n%s", w.name, seed, out)
			}
			sims = append(sims, res.Metrics["sim_ms"].Value)
		}
		if (sims[0] == sims[1]) != w.noiseFree {
			t.Errorf("%s: sim_ms %v at seed 1, %v at seed 2; noise-free %v", w.name, sims[0], sims[1], w.noiseFree)
		}
	}
}

// TestHDMedian checks the Harrell-Davis median on samples whose median
// is known: symmetric ones, where it equals the centre, and two groups
// of equal size, where it lies between them.
func TestHDMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{1, 2, 3}, 2},
		{[]float64{5, 1, 4, 2, 3}, 3},
		{[]float64{10, 10, 10, 20, 20, 20}, 15},
	} {
		if got := hdMedian(c.xs); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("hdMedian(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// Many values: it stays inside the middle of the sample.
	var xs []float64
	for i := 0; i < 1001; i++ {
		xs = append(xs, float64(i))
	}
	if got := hdMedian(xs); math.Abs(got-500) > 1e-6 {
		t.Errorf("hdMedian(0..1000) = %v, want 500", got)
	}
}
