// Command benchjson converts `go test -bench` text output on stdin
// into indented JSON on stdout, so the Makefile's bench target can
// persist a machine-readable perf trajectory (BENCH_*.json) per PR:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/benchjson > BENCH_PR4.json
//
// Repeated rows of one benchmark (`-count N`) are folded into one row
// holding the median, quartiles and sample count of each metric
// (benchfmt.Run.Fold).
//
// With -diff FILE the run is also compared against a prior BENCH_*.json
// baseline: per-benchmark metric deltas go to stderr (stdout stays pure
// JSON for redirection). Benchmarks appearing in only one of the two
// runs are skipped. The baseline is folded too, so the deltas compare
// medians.
//
// With -fail-above PCT the comparison becomes a regression gate (the
// Makefile's bench-diff target): any ns/op delta worse than +PCT% makes
// the command exit non-zero after listing the offenders. -gate REGEX
// narrows the gate to matching benchmark names — wall-clock noise on
// sub-millisecond micro-benchmarks would otherwise dominate, so CI
// gates only the long-running end-to-end ones.
//
// -fail-allocs-above PCT gates allocs/op the same way, under a separate
// (much tighter) threshold: allocation counts are deterministic, so
// unlike wall-clock they can be held to a few percent without noise
// retries — and because they carry no noise, the allocs gate can cover
// benchmarks far too short to gate on wall-clock. -allocs-gate REGEX
// scopes it independently (default: the -gate regex); both gates
// report independently.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"collio/internal/benchfmt"
)

func main() {
	diffFile := flag.String("diff", "", "compare against a prior BENCH_*.json `file`; print deltas to stderr")
	failAbove := flag.Float64("fail-above", 0, "exit non-zero when any gated ns/op delta exceeds +`pct` percent (0 disables)")
	failAllocs := flag.Float64("fail-allocs-above", 0, "exit non-zero when any gated allocs/op delta exceeds +`pct` percent (0 disables)")
	gate := flag.String("gate", "", "restrict -fail-above to benchmarks matching `regex` (default: all)")
	allocsGate := flag.String("allocs-gate", "", "restrict -fail-allocs-above to benchmarks matching `regex` (default: the -gate regex)")
	flag.Parse()

	run, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(run.Results) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}
	run.Fold()
	var deltas []benchfmt.Delta
	if *diffFile != "" {
		if deltas, err = printDiff(*diffFile, run); err != nil {
			fatal(err)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(run); err != nil {
		fatal(err)
	}
	if *failAbove > 0 || *failAllocs > 0 {
		if *diffFile == "" {
			fatal(fmt.Errorf("-fail-above/-fail-allocs-above require -diff"))
		}
		var gateErr error
		if *failAbove > 0 {
			gateErr = checkGate(deltas, "ns/op", *failAbove, *gate)
		}
		if *failAllocs > 0 {
			ag := *allocsGate
			if ag == "" {
				ag = *gate
			}
			if err := checkGate(deltas, "allocs/op", *failAllocs, ag); gateErr == nil {
				gateErr = err
			}
		}
		if gateErr != nil {
			fatal(gateErr)
		}
	}
}

// printDiff loads the baseline run from path, writes the metric deltas
// of the current run to stderr, and returns them for gating.
func printDiff(path string, run *benchfmt.Run) ([]benchfmt.Delta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base benchfmt.Run
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %v", path, err)
	}
	base.Fold()
	deltas := benchfmt.Diff(&base, run)
	if len(deltas) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmarks shared with baseline %s\n", path)
		return nil, nil
	}
	fmt.Fprintf(os.Stderr, "\ndeltas vs %s:\n", path)
	return deltas, benchfmt.WriteDeltas(os.Stderr, deltas)
}

// checkGate fails when any gated benchmark's metric with the given unit
// regressed beyond +pct percent relative to the baseline.
func checkGate(deltas []benchfmt.Delta, unit string, pct float64, gate string) error {
	var re *regexp.Regexp
	if gate != "" {
		var err error
		if re, err = regexp.Compile(gate); err != nil {
			return fmt.Errorf("bad -gate regexp: %v", err)
		}
	}
	var bad []benchfmt.Delta
	gated := 0
	for _, d := range deltas {
		if d.Unit != unit || (re != nil && !re.MatchString(d.Name)) {
			continue
		}
		gated++
		if d.Old != 0 && d.Pct > pct {
			bad = append(bad, d)
		}
	}
	if gated == 0 {
		return fmt.Errorf("gate matched no %s deltas (gate %q)", unit, gate)
	}
	if len(bad) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: gate ok — %d benchmark(s) within +%g%% %s\n", gated, pct, unit)
		return nil
	}
	fmt.Fprintf(os.Stderr, "\nbenchjson: %s regressions beyond +%g%%:\n", unit, pct)
	benchfmt.WriteDeltas(os.Stderr, bad)
	return fmt.Errorf("%d benchmark(s) regressed beyond +%g%% %s", len(bad), pct, unit)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
