// Command collvet runs the collio static-analysis suite: five
// simulator-invariant analyzers that catch, at compile time, the bugs
// that would silently corrupt the reproduction's overlap measurements —
// two per-node syntactic matchers (wall-clock time or global randomness
// in the deterministic simulator, kernel-owned state shared across
// goroutines), two flow-sensitive analyzers over the shared
// CFG/dataflow core (map-iteration-ordered emission and writes,
// sim.Time unit confusion), and a type-shape check (memosafe) that
// keeps //collvet:memoized cache-result types free of live simulator
// handles and other non-plain data.
//
// Usage:
//
//	go run ./cmd/collvet [flags] [packages]
//
//	-only name,name   run only the named analyzers (alias: -run)
//	-skip name,name   run all but the named analyzers
//	-json             emit diagnostics as a JSON array
//	-time             print per-analyzer wall time to stderr
//	-cache dir        result-cache directory ("off" disables;
//	                  default: the user cache dir)
//	-list             list analyzers and exit
//	-C dir            change to dir before loading packages
//
// With no package patterns, ./... is analyzed. Findings can be waived
// one at a time with an audited `//collvet:ignore <analyzer> --
// <reason>` comment on the diagnostic's line or the line above; a
// waiver without a reason is itself a finding. Per-package results are
// cached keyed by a hash of the package's sources, its transitive
// dependencies and the analyzer selection, so a clean re-run on an
// unchanged tree skips type-checking entirely.
//
// Exit status is 0 when the tree is clean, 1 when diagnostics were
// reported (a per-analyzer summary line on stderr explains the
// failure), 2 on load or internal errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"collio/internal/analyzer"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	runList := flag.String("run", "", "alias of -only, kept for compatibility")
	skip := flag.String("skip", "", "comma-separated analyzer names to skip")
	timing := flag.Bool("time", false, "print per-analyzer wall time to stderr")
	cacheDir := flag.String("cache", "", `result-cache directory, or "off" (default: user cache dir)`)
	list := flag.Bool("list", false, "list analyzers and exit")
	dir := flag.String("C", "", "change to this directory before loading packages")
	flag.Parse()

	// A real chdir, not just a go-list working directory: the source
	// importer resolves module-internal imports relative to the process
	// cwd, so both must move together.
	if *dir != "" {
		if err := os.Chdir(*dir); err != nil {
			fmt.Fprintf(os.Stderr, "collvet: %v\n", err)
			return 2
		}
	}

	if *list {
		for _, a := range analyzer.All() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*only, *runList, *skip)
	if err != nil {
		fmt.Fprintf(os.Stderr, "collvet: %v\n", err)
		return 2
	}

	cache, err := openCache(*cacheDir)
	if err != nil {
		// The cache is an accelerator: fall back to uncached analysis.
		fmt.Fprintf(os.Stderr, "collvet: cache disabled: %v\n", err)
		cache = nil
	}

	diags, stats, err := analyzer.RunCached("", flag.Args(), analyzers, cache)
	if err != nil {
		fmt.Fprintf(os.Stderr, "collvet: %v\n", err)
		return 2
	}

	if *timing {
		printTimings(analyzers, stats)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analyzer.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "collvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		// Make the non-zero exit self-explanatory: which analyzers
		// fired, how often, and whether anything was waived.
		fmt.Fprintf(os.Stderr, "collvet: %s\n", summarize(diags, stats))
		return 1
	}
	return 0
}

// selectAnalyzers resolves -only/-run/-skip into the analyzer list.
func selectAnalyzers(only, runAlias, skip string) ([]*analyzer.Analyzer, error) {
	if only != "" && runAlias != "" {
		return nil, fmt.Errorf("-only and -run are aliases; give only one")
	}
	if only == "" {
		only = runAlias
	}
	analyzers := analyzer.All()
	if only != "" {
		analyzers = nil
		for _, name := range splitNames(only) {
			a := analyzer.ByName(name)
			if a == nil {
				return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}
	if skip != "" {
		skipped := map[string]bool{}
		for _, name := range splitNames(skip) {
			if analyzer.ByName(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
			}
			skipped[name] = true
		}
		var kept []*analyzer.Analyzer
		for _, a := range analyzers {
			if !skipped[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if len(analyzers) == 0 {
		return nil, fmt.Errorf("analyzer selection is empty")
	}
	return analyzers, nil
}

func splitNames(s string) []string {
	var names []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// openCache resolves the -cache flag: "off" disables, "" uses the
// per-user default.
func openCache(dir string) (*analyzer.Cache, error) {
	if dir == "off" {
		return nil, nil
	}
	if dir == "" {
		var err error
		dir, err = analyzer.DefaultCacheDir()
		if err != nil {
			return nil, err
		}
	}
	return analyzer.OpenCache(dir)
}

func printTimings(analyzers []*analyzer.Analyzer, stats analyzer.RunStats) {
	var parts []string
	for _, a := range analyzers {
		parts = append(parts, fmt.Sprintf("%s=%s", a.Name, stats.Elapsed[a.Name].Round(10*time.Microsecond)))
	}
	fmt.Fprintf(os.Stderr, "collvet: timings: %s (packages: %d analyzed, %d cached)\n",
		strings.Join(parts, " "), stats.CacheMisses, stats.CacheHits)
}

// summarize renders the non-zero-exit explanation line.
func summarize(diags []analyzer.Diagnostic, stats analyzer.RunStats) string {
	perAnalyzer := map[string]int{}
	for _, d := range diags {
		perAnalyzer[d.Analyzer]++
	}
	names := make([]string, 0, len(perAnalyzer))
	for name := range perAnalyzer {
		names = append(names, name)
	}
	sort.Strings(names)
	var parts []string
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, perAnalyzer[name]))
	}
	s := fmt.Sprintf("%d finding(s): %s", len(diags), strings.Join(parts, " "))
	if stats.Suppressed > 0 {
		s += fmt.Sprintf(" (%d suppressed by //collvet:ignore)", stats.Suppressed)
	}
	return s
}
