package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: collio
cpu: Intel(R) Xeon(R)
BenchmarkTable1/crill/IOR/no-overlap-8         	       3	 123456789 ns/op	       345.2 sim-ms/op	  123456 B/op	     789 allocs/op
BenchmarkFig1/ibex/np96/write-comm-2-overlap-8 	       1	1000000000 ns/op	        99.9 sim-ms/op
some test log line that is not a benchmark
PASS
ok  	collio	12.345s
`

func TestParse(t *testing.T) {
	run, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if run.Env["goos"] != "linux" || run.Env["pkg"] != "collio" || run.Env["cpu"] != "Intel(R) Xeon(R)" {
		t.Fatalf("env = %v", run.Env)
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	r := run.Results[0]
	if r.Name != "BenchmarkTable1/crill/IOR/no-overlap" || r.Procs != 8 || r.Iterations != 3 {
		t.Fatalf("result 0 = %+v", r)
	}
	if r.Metrics["sim-ms/op"] != 345.2 || r.Metrics["ns/op"] != 123456789 || r.Metrics["allocs/op"] != 789 {
		t.Fatalf("metrics = %v", r.Metrics)
	}
	if r2 := run.Results[1]; len(r2.Metrics) != 2 || r2.Metrics["sim-ms/op"] != 99.9 {
		t.Fatalf("result 1 = %+v", r2)
	}
}

func TestParseNoProcsSuffix(t *testing.T) {
	run, err := Parse(strings.NewReader("BenchmarkFoo 	 10	 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r := run.Results[0]; r.Name != "BenchmarkFoo" || r.Procs != 1 || r.Metrics["ns/op"] != 5 {
		t.Fatalf("result = %+v", r)
	}
}

func TestParseMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkOdd 	 10	 5\n",        // dangling value without unit
		"BenchmarkBadN 	 x	 5 ns/op\n",  // non-numeric iterations
		"BenchmarkBadV 	 10	 y ns/op\n", // non-numeric metric
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Fatalf("no error for %q", bad)
		}
	}
}

// TestFoldRepeatedRows pins how a `-count 5` stream is recorded: the
// five rows of one benchmark become one row at its first position with
// the median and quartiles of each unit, and a benchmark reported once
// (or at another GOMAXPROCS) keeps its row unchanged.
func TestFoldRepeatedRows(t *testing.T) {
	run, err := Parse(strings.NewReader(`BenchmarkAIOWrite 	 100	 500 ns/op	 9 allocs/op
BenchmarkOnce 	 7	 42 ns/op
BenchmarkAIOWrite 	 100	 100 ns/op	 9 allocs/op
BenchmarkAIOWrite-2 	 50	 60 ns/op
BenchmarkAIOWrite 	 120	 400 ns/op	 9 allocs/op
BenchmarkAIOWrite 	 100	 200 ns/op	 9 allocs/op
BenchmarkAIOWrite 	 80	 300 ns/op	 9 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	run.Fold()
	if len(run.Results) != 3 {
		t.Fatalf("%d rows after folding, want 3: %+v", len(run.Results), run.Results)
	}
	f := run.Results[0]
	if f.Name != "BenchmarkAIOWrite" || f.Procs != 1 || f.Samples != 5 || f.Iterations != 500 {
		t.Fatalf("folded row = %+v", f)
	}
	if f.Metrics["ns/op"] != 300 || f.Q1["ns/op"] != 200 || f.Q3["ns/op"] != 400 {
		t.Fatalf("ns/op median %v, quartiles %v/%v; want 300, 200/400", f.Metrics["ns/op"], f.Q1["ns/op"], f.Q3["ns/op"])
	}
	if f.Metrics["allocs/op"] != 9 || f.Q1["allocs/op"] != 9 || f.Q3["allocs/op"] != 9 {
		t.Fatalf("allocs/op = %v %v %v", f.Q1, f.Metrics, f.Q3)
	}
	if once := run.Results[1]; once.Name != "BenchmarkOnce" || once.Samples != 0 || once.Q1 != nil || once.Metrics["ns/op"] != 42 {
		t.Fatalf("single row = %+v", once)
	}
	if p2 := run.Results[2]; p2.Procs != 2 || p2.Samples != 0 || p2.Metrics["ns/op"] != 60 {
		t.Fatalf("procs-2 row = %+v", p2)
	}
}

// TestQuantileInterpolates checks the quantile rule between order
// statistics.
func TestQuantileInterpolates(t *testing.T) {
	vs := []float64{1, 2, 4, 8}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 3}, {0.75, 5}, {1, 8}} {
		if got := quantile(vs, c.p); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", vs, c.p, got, c.want)
		}
	}
}
