// Package metrics is the time-series telemetry layer of the simulator:
// simulated-time-cadence gauges (per-OST queue depth and busy time,
// per-link utilisation, collective-buffer occupancy, per-rank phase
// occupancy, event-kernel depth) and HDR-style log-bucketed latency
// histograms (chunk transfer, storage service, per-phase durations).
//
// It follows the probe layer's observability contract exactly:
//
//   - A nil *Metrics is a valid no-op sink; every method is nil-safe, so
//     instrumentation sites need no guards and the metrics-off hot path
//     costs one pointer test.
//   - Recording only appends to host-side state. It schedules no kernel
//     events, draws no randomness and reads no wall clock — trace and
//     probe digests are bit-identical with metrics on or off (enforced
//     by TestMetricsDigestInvariance). The one sanctioned kernel
//     interaction is the same as the probe layer's: completion
//     observation via Future.Then on futures that already exist.
//   - Under partitioned execution (-jrun) every LP records into its own
//     shard and MergeShards folds the shards after the run. All series
//     combiners are commutative and associative over int64 (sum, max),
//     so the folded result equals the sequential recording exactly —
//     no float rounding, no order sensitivity.
//
// Sampling cadence is pure virtual time: a gauge is a dense bucket grid
// of width Resolution() over sim.Time, and samples are folded into
// their bucket at the state-change instants the simulator already
// visits (service start, chunk arrival, phase end). There are no
// self-rescheduling timer events — a cadence timer would keep the event
// queue non-empty forever (Kernel.Run terminates on queue exhaustion)
// and would perturb digests. The wall clock appears in exactly one
// file, progress.go (the live sweep heartbeat), which the wallclock
// analyzer exempts by name; the rest of the package is inside the
// deterministic zone.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"collio/internal/sim"
)

// Mode selects a gauge's per-bucket combiner.
type Mode uint8

const (
	// ModeSum accumulates added values per bucket: busy nanoseconds,
	// byte rates. AddSpan distributes an interval's nanoseconds across
	// the buckets it crosses, so value/Resolution() is a utilisation.
	ModeSum Mode = iota
	// ModeMax keeps the per-bucket maximum of observed values: queue
	// depth peaks, event-heap depth.
	ModeMax
	// ModeDelta accumulates signed deltas per bucket (+bytes when a
	// collective buffer fills, -bytes when it drains); consumers
	// integrate the series into an occupancy timeline. Deltas merge by
	// sum, so the combiner stays commutative under shard folding.
	ModeDelta
)

func (m Mode) String() string {
	switch m {
	case ModeSum:
		return "sum"
	case ModeMax:
		return "max"
	case ModeDelta:
		return "delta"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// DefaultResolution is the gauge bucket width when New is given zero:
// 1 ms of virtual time, ~40 buckets per cycle on the paper's platforms.
const DefaultResolution = sim.Time(1_000_000)

// Metrics is one run's telemetry sink. The zero sink is a nil pointer.
type Metrics struct {
	res    sim.Time
	gauges map[string]*Gauge
	hists  map[string]*Hist
}

// New returns an empty sink with the given bucket resolution
// (DefaultResolution when res <= 0).
func New(res sim.Time) *Metrics {
	if res <= 0 {
		res = DefaultResolution
	}
	return &Metrics{
		res:    res,
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Hist),
	}
}

// Enabled reports whether the sink records (nil receivers do not).
func (m *Metrics) Enabled() bool { return m != nil }

// Resolution returns the gauge bucket width.
func (m *Metrics) Resolution() sim.Time {
	if m == nil {
		return DefaultResolution
	}
	return m.res
}

// Gauge returns the named time-series gauge, creating it on first use.
// The mode is fixed at creation; asking for an existing gauge with a
// different mode panics (a naming bug, not a runtime condition). A nil
// sink returns a nil gauge, itself a valid no-op.
func (m *Metrics) Gauge(name string, mode Mode) *Gauge {
	if m == nil {
		return nil
	}
	if g, ok := m.gauges[name]; ok {
		if g.mode != mode {
			panic(fmt.Sprintf("metrics: gauge %q requested as %v but created as %v", name, mode, g.mode))
		}
		return g
	}
	g := &Gauge{name: name, mode: mode, res: m.res}
	m.gauges[name] = g
	return g
}

// Hist returns the named histogram, creating it on first use. A nil
// sink returns a nil histogram, itself a valid no-op.
func (m *Metrics) Hist(name string) *Hist {
	if m == nil {
		return nil
	}
	h, ok := m.hists[name]
	if !ok {
		h = &Hist{name: name, min: -1}
		m.hists[name] = h
	}
	return h
}

// Gauges returns all gauges sorted by name.
func (m *Metrics) Gauges() []*Gauge {
	if m == nil {
		return nil
	}
	names := make([]string, 0, len(m.gauges))
	for name := range m.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Gauge, len(names))
	for i, name := range names {
		out[i] = m.gauges[name]
	}
	return out
}

// Hists returns all histograms sorted by name.
func (m *Metrics) Hists() []*Hist {
	if m == nil {
		return nil
	}
	names := make([]string, 0, len(m.hists))
	for name := range m.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Hist, len(names))
	for i, name := range names {
		out[i] = m.hists[name]
	}
	return out
}

// NumBuckets returns the time extent of the recorded series: the index
// one past the last touched gauge bucket.
func (m *Metrics) NumBuckets() int {
	n := 0
	if m == nil {
		return n
	}
	for _, g := range m.Gauges() {
		if len(g.vals) > n {
			n = len(g.vals)
		}
	}
	return n
}

// MergeShards folds per-LP sinks into dst. Every combiner is
// commutative and associative over int64, so the result is independent
// of shard order and — because each model resource records on exactly
// one LP — equal to what a sequential run records (enforced by
// TestMetricsShardMergeMatchesSequential; the execution-level kernel.*
// series is sequential-only and not part of that equality).
func MergeShards(dst *Metrics, shards []*Metrics) {
	if dst == nil {
		return
	}
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		for _, g := range sh.Gauges() {
			dst.Gauge(g.name, g.mode).mergeFrom(g)
		}
		for _, h := range sh.Hists() {
			dst.Hist(h.name).mergeFrom(h)
		}
	}
}

// Dump renders a canonical plain-text form of the whole sink: sorted
// series, sparse non-zero buckets. Equality of dumps is equality of
// recorded telemetry; the equivalence tests compare dumps across
// executors.
func (m *Metrics) Dump() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	for _, g := range m.Gauges() {
		fmt.Fprintf(&b, "gauge %s %s res=%d\n", g.name, g.mode, int64(g.res))
		for i, v := range g.vals {
			if v != 0 {
				fmt.Fprintf(&b, "  %d %d\n", i, v)
			}
		}
	}
	for _, h := range m.Hists() {
		fmt.Fprintf(&b, "hist %s count=%d sum=%d min=%d max=%d\n", h.name, h.count, h.sum, h.Min(), h.max)
		for i, c := range h.counts {
			if c != 0 {
				fmt.Fprintf(&b, "  %d %d\n", i, c)
			}
		}
	}
	return b.String()
}

// Gauge is one named time series on a fixed virtual-time bucket grid.
// All methods are nil-safe no-ops.
type Gauge struct {
	name string
	mode Mode
	res  sim.Time
	vals []int64
}

// Name returns the series name.
func (g *Gauge) Name() string { return g.name }

// Mode returns the per-bucket combiner.
func (g *Gauge) Mode() Mode { return g.mode }

// Values returns the raw per-bucket values (not a copy).
func (g *Gauge) Values() []int64 {
	if g == nil {
		return nil
	}
	return g.vals
}

func (g *Gauge) bucket(t sim.Time) int {
	if t < 0 {
		t = 0
	}
	return int(t / g.res)
}

func (g *Gauge) grow(b int) {
	for len(g.vals) <= b {
		g.vals = append(g.vals, 0)
	}
}

// Add folds v into the bucket holding t (ModeSum and ModeDelta).
func (g *Gauge) Add(t sim.Time, v int64) {
	if g == nil {
		return
	}
	b := g.bucket(t)
	g.grow(b)
	g.vals[b] += v
}

// Observe keeps the per-bucket maximum of v (ModeMax).
func (g *Gauge) Observe(t sim.Time, v int64) {
	if g == nil {
		return
	}
	b := g.bucket(t)
	g.grow(b)
	if v > g.vals[b] {
		g.vals[b] = v
	}
}

// AddSpan distributes the nanoseconds of [t0, t1) across the buckets
// the interval crosses (ModeSum): the busy-time primitive behind every
// utilisation series.
func (g *Gauge) AddSpan(t0, t1 sim.Time) {
	if g == nil || t1 <= t0 {
		return
	}
	if t0 < 0 {
		t0 = 0
	}
	b0, b1 := g.bucket(t0), g.bucket(t1-1)
	g.grow(b1)
	for b := b0; b <= b1; b++ {
		lo, hi := sim.Time(b)*g.res, sim.Time(b+1)*g.res
		if t0 > lo {
			lo = t0
		}
		if t1 < hi {
			hi = t1
		}
		g.vals[b] += int64(hi - lo)
	}
}

// Total returns the sum over all buckets (ModeSum gauges: the series
// grand total; ModeDelta gauges: the net delta, normally zero).
func (g *Gauge) Total() int64 {
	var t int64
	if g == nil {
		return t
	}
	for _, v := range g.vals {
		t += v
	}
	return t
}

// Peak returns the maximum bucket value for ModeSum/ModeMax gauges and
// the maximum of the integrated (running-sum) series for ModeDelta
// gauges — the peak occupancy.
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	var peak, run int64
	for _, v := range g.vals {
		if g.mode == ModeDelta {
			run += v
		} else {
			run = v
		}
		if run > peak {
			peak = run
		}
	}
	return peak
}

func (g *Gauge) mergeFrom(src *Gauge) {
	if g == nil || src == nil {
		return
	}
	g.grow(len(src.vals) - 1)
	for i, v := range src.vals {
		if g.mode == ModeMax {
			if v > g.vals[i] {
				g.vals[i] = v
			}
		} else {
			g.vals[i] += v
		}
	}
}

// Histogram geometry: values 0..7 get exact unit buckets; above that,
// each power-of-two octave splits into 8 sub-buckets (HDR-style
// log-linear), keeping relative error under 12.5% at any magnitude
// while the bucket count stays logarithmic in the value range.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
)

// HistBucket maps a value to its bucket index. Negative values clamp
// to bucket 0.
func HistBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return e*histSub + int(v>>uint(e))
}

// HistBucketLow returns the inclusive lower bound of bucket i — the
// smallest value that maps to it. The exclusive upper bound is
// HistBucketLow(i+1).
func HistBucketLow(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := i/histSub - 1
	return int64(i-e*histSub) << uint(e)
}

// Hist is a log-bucketed value distribution. All methods are nil-safe
// no-ops.
type Hist struct {
	name       string
	counts     []int64
	count, sum int64
	min, max   int64 // min is -1 until the first Record
}

// Name returns the histogram name.
func (h *Hist) Name() string { return h.name }

// Record folds one value into the distribution.
func (h *Hist) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := HistBucket(v)
	for len(h.counts) <= b {
		h.counts = append(h.counts, 0)
	}
	h.counts[b]++
	h.count++
	h.sum += v
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded values.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of recorded values.
func (h *Hist) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest recorded value (0 when empty).
func (h *Hist) Min() int64 {
	if h == nil || h.min < 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value.
func (h *Hist) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Counts returns the raw per-bucket counts (not a copy).
func (h *Hist) Counts() []int64 {
	if h == nil {
		return nil
	}
	return h.counts
}

// Quantile returns the lower bound of the bucket holding the q-th
// quantile (0 <= q <= 1) — a deterministic, conservatively-rounded
// estimate.
func (h *Hist) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	want := int64(q * float64(h.count))
	if want >= h.count {
		want = h.count - 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum > want {
			return HistBucketLow(i)
		}
	}
	return h.max
}

func (h *Hist) mergeFrom(src *Hist) {
	if h == nil || src == nil || src.count == 0 {
		return
	}
	for len(h.counts) < len(src.counts) {
		h.counts = append(h.counts, 0)
	}
	for i, c := range src.counts {
		h.counts[i] += c
	}
	h.count += src.count
	h.sum += src.sum
	if h.min < 0 || src.min < h.min {
		h.min = src.min
	}
	if src.max > h.max {
		h.max = src.max
	}
}
