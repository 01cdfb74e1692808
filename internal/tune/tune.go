// Package tune is the auto-tuner over collio's collective-write design
// space: given a workload, a platform and a rank count, it sweeps the
// (algorithm × primitive × collective-buffer size × aggregator count)
// grid through the simulator and returns the predicted-best
// configuration. Every sweep point is memoized in a digest-keyed Cache
// (optionally persisted as a JSON-lines store), so repeating a
// question — in this process or a later one — answers in O(lookup)
// without simulating, and concurrent cold askers coalesce onto a
// single simulation per grid point (single-flight).
//
// Sweeps fan over exp.ForEach, the same worker pool the evaluation
// harness uses, so -j / -bundle and the -progress heartbeat all apply.
// Result-affecting execution strategy (bundling) is part of the cache
// key; result-preserving strategy (sweep parallelism) is not, so warm
// answers are bit-identical to the cold run that populated them
// regardless of how either was executed.
package tune

import (
	"fmt"
	"sort"

	"collio/internal/exp"
	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/workload"
)

// Space is the design-space grid a sweep enumerates, the cross product
// of its four axes. Zero-value axes fall back to the defaults noted on
// each field.
type Space struct {
	// Algorithms to try; empty means all five paper algorithms.
	Algorithms []fcoll.Algorithm
	// Primitives to try; empty means two-sided only (the paper's
	// fastest family, and the only one eligible for -bundle).
	Primitives []fcoll.Primitive
	// BufferSizes are collective-buffer sizes in bytes; empty means
	// {16 MiB, 32 MiB}. A 0 entry is normalized to the 32 MiB ompio
	// default before digesting, so 0 and 32<<20 share a cache line.
	BufferSizes []int64
	// AggregatorCounts are fixed aggregator counts; empty means {0}
	// (automatic one-per-node selection).
	AggregatorCounts []int
	// Hierarchical selects flat vs two-level family variants; empty
	// means {false} (flat only). Hierarchical points over a one-sided
	// primitive are infeasible (fcoll rejects them) and are skipped by
	// Select like any other point-specific failure.
	Hierarchical []bool
}

// DefaultSpace is the quick grid: every paper algorithm over the
// two-sided primitive at the two common collective-buffer sizes with
// automatic aggregator selection — 10 points.
func DefaultSpace() Space {
	return Space{
		Algorithms:       append([]fcoll.Algorithm(nil), fcoll.Algorithms...),
		Primitives:       []fcoll.Primitive{fcoll.TwoSided},
		BufferSizes:      []int64{16 << 20, 32 << 20},
		AggregatorCounts: []int{0},
	}
}

// FullSpace widens DefaultSpace to all three paper primitives — 30
// points. One-sided points cannot bundle, so full sweeps run their
// one-sided slices on the exact executor regardless of -bundle.
func FullSpace() Space {
	s := DefaultSpace()
	s.Primitives = append([]fcoll.Primitive(nil), fcoll.Primitives...)
	return s
}

// HierarchicalSpace widens DefaultSpace with the two-level family axis
// — 20 points: every paper algorithm, two-sided, both buffer sizes,
// flat and hierarchical. This is the grid behind evalsuite's E13
// comparison and the smallest space from which Select can return a
// hierarchical winner.
func HierarchicalSpace() Space {
	s := DefaultSpace()
	s.Hierarchical = []bool{false, true}
	return s
}

// Shared read-only default axes for normalized. DefaultSpace hands
// callers fresh copies they may mutate; normalized runs on every
// Select (twice per query) and must not allocate, so it points empty
// axes at these instead.
var (
	defaultPrimitives  = []fcoll.Primitive{fcoll.TwoSided}
	defaultBufferSizes = []int64{16 << 20, 32 << 20}
	defaultAggregators = []int{0}
	defaultFamilies    = []bool{false}
)

// normalized fills empty axes with their defaults.
func (s Space) normalized() Space {
	if len(s.Algorithms) == 0 {
		s.Algorithms = fcoll.Algorithms
	}
	if len(s.Primitives) == 0 {
		s.Primitives = defaultPrimitives
	}
	if len(s.BufferSizes) == 0 {
		s.BufferSizes = defaultBufferSizes
	}
	if len(s.AggregatorCounts) == 0 {
		s.AggregatorCounts = defaultAggregators
	}
	if len(s.Hierarchical) == 0 {
		s.Hierarchical = defaultFamilies
	}
	return s
}

// Size returns the number of grid points after normalization.
func (s Space) Size() int {
	s = s.normalized()
	return len(s.Algorithms) * len(s.Primitives) * len(s.BufferSizes) *
		len(s.AggregatorCounts) * len(s.Hierarchical)
}

// Configs enumerates the grid over a base Config in canonical order —
// algorithm outermost, the flat/hierarchical family innermost. The
// order is part of the tuner's determinism contract: ties on predicted
// time break toward the earlier point, so a Select winner never depends
// on completion order or parallelism. (Flat precedes hierarchical at
// each point, so a hierarchical winner always won strictly.)
func (s Space) Configs(base exp.Config) []exp.Config {
	s = s.normalized()
	out := make([]exp.Config, 0, s.Size())
	for _, alg := range s.Algorithms {
		for _, prim := range s.Primitives {
			for _, bs := range s.BufferSizes {
				for _, ag := range s.AggregatorCounts {
					for _, hier := range s.Hierarchical {
						c := base
						c.Algorithm = alg
						c.Primitive = prim
						c.BufferSize = bs
						c.Aggregators = ag
						c.Hierarchical = hier
						out = append(out, c)
					}
				}
			}
		}
	}
	return out
}

// Options shape a Tuner.
type Options struct {
	// Space is the grid to sweep; the zero value means DefaultSpace.
	Space Space
	// Parallel is the sweep worker count (exp.ForEach semantics:
	// <= 0 means every core).
	Parallel int
	// Bundle requests the bundled cohort executor for eligible points
	// (the 100k–1M-rank path). Bundled answers are tolerance-accurate,
	// not exact, so Bundle IS part of the cache key: bundled and exact
	// sweeps memoize separate lines.
	Bundle bool
	// Noisy keeps the platform's noise model instead of normalizing to
	// platform.Deterministic(). The default normalization makes the
	// question seed-free: one cache line answers for every seed.
	Noisy bool
	// Seed is the platform-noise seed, meaningful only with Noisy.
	Seed int64
	// CachePath, when non-empty, persists the memo cache as a
	// JSON-lines store at that path (loaded on construction, appended
	// during sweeps).
	CachePath string
}

// Tuner answers Select queries against one shared memo cache.
type Tuner struct {
	opts  Options
	cache *Cache
}

// New builds a Tuner, opening (or creating) the on-disk cache when
// Options.CachePath is set.
func New(opts Options) (*Tuner, error) {
	cache, err := OpenCache(opts.CachePath)
	if err != nil {
		return nil, err
	}
	return &Tuner{opts: opts, cache: cache}, nil
}

// NewWithCache builds a Tuner over an existing cache (shared with
// other tuners or a serving loop).
func NewWithCache(opts Options, cache *Cache) *Tuner {
	return &Tuner{opts: opts, cache: cache}
}

// Cache returns the tuner's memo cache.
func (t *Tuner) Cache() *Cache { return t.cache }

// Candidate is one evaluated grid point of a Selection.
type Candidate struct {
	Config exp.Config
	Result exp.Result
	// Hit reports that the result came from the memo cache without
	// simulating.
	Hit bool
	// Err is non-nil when the point could not run on this platform
	// (e.g. a fixed aggregator count exceeding the node count); such
	// points are skipped, not fatal.
	Err error
}

// Selection is the answer to one Select query.
type Selection struct {
	// Best is the feasible candidate with the smallest predicted
	// elapsed time; ties break toward the canonical enumeration order.
	Best Candidate
	// Candidates holds every grid point in canonical order, including
	// skipped ones.
	Candidates []Candidate
	// Evaluated / Skipped count feasible vs infeasible points.
	Evaluated int
	Skipped   int
	// Hits counts candidates answered from the memo cache; a fully
	// warm Select has Hits == Evaluated and simulates nothing.
	Hits int
}

// Select sweeps the design space for the given workload, platform and
// rank count and returns the predicted-best configuration with its
// predicted Result. Grid points that cannot run (platform too small
// for the rank count is fatal; a point-specific failure is skipped)
// are recorded on their Candidate; Select fails only when every point
// fails, returning the first error in canonical order.
func (t *Tuner) Select(gen workload.Generator, pf platform.Platform, nprocs int) (Selection, error) {
	cgen, ok := gen.(workload.Canonical)
	if !ok {
		return Selection{}, fmt.Errorf("tune: generator %T does not implement workload.Canonical; it cannot be tuned", gen)
	}
	if !t.opts.Noisy {
		pf = pf.Deterministic()
	}
	base := exp.Config{
		Platform: pf,
		Workload: cgen,
		NProcs:   nprocs,
		Bundled:  t.opts.Bundle,
	}
	if t.opts.Noisy {
		base.Seed = t.opts.Seed
	}
	configs := t.opts.Space.Configs(base)
	cands := make([]Candidate, len(configs))
	exp.ForEach(t.opts.Parallel, len(configs), func(i int) {
		res, hit, err := t.cache.EvalSpec(configs[i].Spec())
		cands[i] = Candidate{Config: configs[i], Result: res, Hit: hit, Err: err}
	})
	sel := Selection{Candidates: cands}
	best := -1
	for i, c := range cands {
		if c.Err != nil {
			sel.Skipped++
			continue
		}
		sel.Evaluated++
		if c.Hit {
			sel.Hits++
		}
		if best < 0 || c.Result.Elapsed < cands[best].Result.Elapsed {
			best = i
		}
	}
	if best < 0 {
		return sel, fmt.Errorf("tune: every grid point failed: %v", firstErr(cands))
	}
	sel.Best = cands[best]
	return sel, nil
}

// firstErr returns the first candidate error in canonical order.
func firstErr(cands []Candidate) error {
	for _, c := range cands {
		if c.Err != nil {
			return c.Err
		}
	}
	return nil
}

// Flush persists the memo cache (see Cache.Flush).
func (t *Tuner) Flush() error { return t.cache.Flush() }

// Close flushes and closes the memo cache's store, if any.
func (t *Tuner) Close() error { return t.cache.Close() }

// RankedCandidates returns the selection's feasible candidates sorted
// by predicted elapsed time (stable, so equal times keep canonical
// order) — the report surface for evalsuite's select experiment.
func (s Selection) RankedCandidates() []Candidate {
	ranked := make([]Candidate, 0, len(s.Candidates))
	for _, c := range s.Candidates {
		if c.Err == nil {
			ranked = append(ranked, c)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		return ranked[i].Result.Elapsed < ranked[j].Result.Elapsed
	})
	return ranked
}
