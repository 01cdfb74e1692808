package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/sim"
	"collio/internal/simnet"
	"collio/internal/workload"
)

// Config is the canonical identity of one simulation run: every field
// that determines the run's Result, and nothing else. Where Spec is
// the execution surface — it carries instrumentation sinks, worker
// counts and other knobs that provably do not change results — Config
// is the cache key: two Specs with equal Configs return bit-identical
// Results, so a memoized Result can answer for either.
//
// JRun is deliberately absent: the conservative parallel executor is
// bit-identical to sequential execution at every worker count
// (TestParallelRunMatchesSequential), so it cannot split a cache line.
// Bundled is present: the bundled cohort executor answers within a
// makespan tolerance rather than exactly (DESIGN.md §14), so bundled
// and exact runs of the same question are distinct cache entries.
type Config struct {
	// Platform is the full cluster model. Every field participates in
	// the digest — a deterministic variant, a scaled node count or a
	// different network model is a different cache line.
	Platform platform.Platform
	// Workload is the canonical generator. Only Canonical generators
	// are digestable; Spec.Config fails for custom generators that do
	// not declare their parameters.
	Workload workload.Canonical
	// NProcs is the rank count.
	NProcs int
	// Algorithm / Primitive / BufferSize / Aggregators configure the
	// collective (fcoll.Options); BufferSize 0 normalizes to the 32 MiB
	// ompio default so the explicit and implicit spellings share one
	// cache line, Aggregators 0 is automatic selection.
	Algorithm   fcoll.Algorithm
	Primitive   fcoll.Primitive
	BufferSize  int64
	Aggregators int
	// Hierarchical selects the two-level collective-write family,
	// mirroring Spec.Hierarchical.
	Hierarchical bool
	// Seed drives platform noise. On noise-free platforms it is still
	// part of the identity (the digest does not prove noise-freedom);
	// the tuner pins it by normalizing platforms to Deterministic().
	Seed int64
	// Read selects the collective-read path.
	Read bool
	// Bundled requests the bundled cohort executor (with its silent
	// exact fallback), mirroring Spec.Bundle.
	Bundled bool
}

// configEncodingVersion versions the canonical encoding. Bump it
// whenever a digest-relevant field is added, removed, renamed or
// reordered anywhere in the encoding (Config itself, platform.Platform,
// or a workload's Params) — the version line makes every old digest
// miss instead of aliasing a new-semantics run, which is the cache's
// invalidation mechanism. The golden-digest test pins the encoding;
// the field-census tests point here when they fail.
// Version history:
//
//	v1 — initial encoding.
//	v2 — added hierarchical (two-level family selector) and
//	     platform.combine_per_op (leader merge cost scalar).
const configEncodingVersion = 2

// workloadSeedPolicy names the fixed-layout seed policy in the
// encoding: every run generates its job views at the fixed internal
// workloadSeed so only platform noise varies between seeds (run.go).
// If the seed policy ever becomes configurable, encode the new policy
// here and bump configEncodingVersion.
const workloadSeedPolicy = "fixed"

// Digest is the SHA-256 content digest of a Config's canonical
// encoding: the key of the tuner's memo cache, stable across processes
// and hosts.
type Digest [sha256.Size]byte

// String returns the lowercase-hex form used in stores and logs.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// ParseDigest parses the lowercase-hex form.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	b, err := hex.DecodeString(s)
	if err != nil {
		return d, fmt.Errorf("exp: bad digest %q: %v", s, err)
	}
	if len(b) != len(d) {
		return d, fmt.Errorf("exp: bad digest %q: want %d hex bytes, got %d", s, len(d), len(b))
	}
	copy(d[:], b)
	return d, nil
}

// CanonicalBytes returns the versioned canonical encoding the digest
// is computed over: a line-oriented key=value text, one field per
// line, in fixed order. The format is deliberately human-readable so
// a cache mismatch can be diagnosed by diffing two encodings.
func (c Config) CanonicalBytes() ([]byte, error) {
	if c.Workload == nil {
		return nil, fmt.Errorf("exp: Config.Workload is nil")
	}
	b := make([]byte, 0, 1024)
	kv := func(k, v string) {
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, v...)
		b = append(b, '\n')
	}
	ki := func(k string, v int64) { kv(k, strconv.FormatInt(v, 10)) }
	kf := func(k string, v float64) { kv(k, strconv.FormatFloat(v, 'g', -1, 64)) }
	kb := func(k string, v bool) { kv(k, strconv.FormatBool(v)) }

	b = append(b, "collio.Config/"...)
	b = strconv.AppendInt(b, configEncodingVersion, 10)
	b = append(b, '\n')

	// Platform: every field of platform.Platform, in declaration
	// order. The field-census test (TestConfigEncodingCoversPlatform)
	// fails when platform.Platform gains a field this list misses.
	pf := c.Platform
	kv("platform.name", pf.Name)
	ki("platform.nodes", int64(pf.Nodes))
	ki("platform.ranks_per_node", int64(pf.RanksPerNode))
	kf("platform.inter_bandwidth", pf.InterBandwidth)
	ki("platform.inter_latency", int64(pf.InterLatency))
	kf("platform.intra_bandwidth", pf.IntraBandwidth)
	ki("platform.intra_latency", int64(pf.IntraLatency))
	kf("platform.mem_bandwidth", pf.MemBandwidth)
	kf("platform.net_noise_sigma", pf.NetNoiseSigma)
	kf("platform.run_noise_net", pf.RunNoiseNet)
	kf("platform.run_noise_storage", pf.RunNoiseStorage)
	ki("platform.stripe_size", pf.StripeSize)
	ki("platform.storage_targets", int64(pf.StorageTargets))
	kf("platform.target_bandwidth", pf.TargetBandwidth)
	ki("platform.target_per_op", int64(pf.TargetPerOp))
	ki("platform.storage_latency", int64(pf.StorageLatency))
	kb("platform.node_local_storage", pf.NodeLocalStorage)
	kf("platform.storage_noise_sigma", pf.StorageNoiseSigma)
	ki("platform.eager_limit", pf.EagerLimit)
	kb("platform.progress_thread", pf.ProgressThread)
	ki("platform.rendezvous_chunk", pf.RendezvousChunk)
	ki("platform.combine_per_op", int64(pf.CombinePerOp))
	kv("platform.net_model", netModelName(pf.NetModel))

	// Workload: the generator's own canonical parameter list.
	for _, p := range c.Workload.Params() {
		kv("workload."+p.Key, p.Value)
	}

	// Run shape.
	ki("nprocs", int64(c.NProcs))
	kv("algorithm", c.Algorithm.String())
	kv("primitive", c.Primitive.String())
	ki("buffersize", normalizeBufferSize(c.BufferSize))
	ki("aggregators", int64(c.Aggregators))
	kb("hierarchical", c.Hierarchical)
	kv("seed_policy", workloadSeedPolicy)
	ki("workload_seed", workloadSeed)
	ki("seed", c.Seed)
	kb("read", c.Read)
	kb("bundled", c.Bundled)
	return b, nil
}

// netModelName encodes a simnet.NetModel stably by name, not by
// integer value, so reordering the enum cannot silently alias digests.
func netModelName(m simnet.NetModel) string { return m.String() }

// normalizeBufferSize folds the implicit default into the explicit
// spelling (Spec.collOptions applies it before execution).
func normalizeBufferSize(b int64) int64 {
	if b == 0 {
		return 32 << 20
	}
	return b
}

// Digest returns the SHA-256 digest of the canonical encoding.
func (c Config) Digest() (Digest, error) {
	b, err := c.CanonicalBytes()
	if err != nil {
		return Digest{}, err
	}
	return sha256.Sum256(b), nil
}

// Spec expands the Config back into an executable Spec (no
// instrumentation, sequential). Execute(c.Spec()) is the run the
// Config identifies.
func (c Config) Spec() Spec {
	return Spec{
		Platform:     c.Platform,
		NProcs:       c.NProcs,
		Gen:          c.Workload,
		Algorithm:    c.Algorithm,
		Primitive:    c.Primitive,
		BufferSize:   c.BufferSize,
		Aggregators:  c.Aggregators,
		Hierarchical: c.Hierarchical,
		Seed:         c.Seed,
		Read:         c.Read,
		Bundle:       c.Bundled,
	}
}

// Config extracts the canonical identity of the spec. It fails when
// the generator does not implement workload.Canonical (a custom
// generator with undeclared parameters cannot be cached safely) —
// every built-in generator is Canonical.
func (s Spec) Config() (Config, error) {
	gen, ok := s.Gen.(workload.Canonical)
	if !ok {
		return Config{}, fmt.Errorf("exp: generator %T does not implement workload.Canonical; its runs cannot be digested", s.Gen)
	}
	return Config{
		Platform:     s.Platform,
		Workload:     gen,
		NProcs:       s.NProcs,
		Algorithm:    s.Algorithm,
		Primitive:    s.Primitive,
		BufferSize:   s.BufferSize,
		Aggregators:  s.Aggregators,
		Hierarchical: s.Hierarchical,
		Seed:         s.Seed,
		Read:         s.Read,
		Bundled:      s.Bundle,
	}, nil
}

// ExecuteConfig runs the simulation a Config identifies and returns
// its Result — the produce side of the Config/Result pair the tuner's
// cache memoizes.
func ExecuteConfig(c Config) (Result, error) {
	return Execute(c.Spec())
}

// Result is the outcome of one run, keyed in caches by the Config
// digest. A Result may outlive every simulation object by hours (the
// on-disk store) or cross process boundaries, so it must stay
// transitively plain data: no live simulator handles, closures or
// channels. collvet's memosafe analyzer enforces that on the marker
// below.
//
//collvet:memoized
type Result struct {
	// Elapsed is the wall time of the whole benchmark (all collectives,
	// slowest rank).
	Elapsed sim.Time
	// ShuffleTime / WriteTime are the maxima over aggregator ranks of
	// time spent in the shuffle vs file-access phases (the §IV-A
	// breakdown).
	ShuffleTime sim.Time
	WriteTime   sim.Time
	// BytesWritten is the total file volume.
	BytesWritten int64
	// Cycles is the per-collective internal cycle count (first view).
	Cycles int
	// Aggregators is the number of ranks that performed file I/O.
	Aggregators int
}

// Metrics is the historical name of Result, kept as an alias for the
// facade and the pre-tuner call sites.
type Metrics = Result
