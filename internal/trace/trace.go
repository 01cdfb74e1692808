// Package trace records per-rank phase timelines of a collective
// operation: which rank spent which virtual-time interval in which
// phase (shuffle, file write, read, sync). Timelines serve two
// purposes: ASCII Gantt rendering for the benchmark tools' -trace flag,
// and *overlap assertions* in tests — the property the reproduced paper
// is about ("does the shuffle of cycle i+1 really run during the write
// of cycle i?") becomes directly checkable.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"collio/internal/sim"
)

// Phase labels used by the collective engine.
const (
	PhaseShuffle = "shuffle"
	PhaseWrite   = "write"
	PhaseRead    = "read"
	// PhaseSync covers explicit synchronisation: barriers and RMA fences
	// at cycle and collective boundaries.
	PhaseSync = "sync"
)

// Span is one contiguous phase interval on one rank.
type Span struct {
	Rank  int
	Phase string
	Cycle int
	Start sim.Time
	End   sim.Time
}

// Duration returns the span length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Recorder accumulates spans; a nil *Recorder is a valid no-op sink.
// A collective run's recorder is a view of the probe's phase events,
// filled after the run (fcoll.AppendTrace), so it is never written
// concurrently.
type Recorder struct {
	Spans []Span
}

// New returns an empty recorder, preallocated for a typical multi-cycle
// run so the hot Record path rarely grows the slice.
func New() *Recorder { return &Recorder{Spans: make([]Span, 0, 512)} }

// Record appends a span. Zero-length spans are dropped. Safe on a nil
// receiver (no-op), so instrumentation sites need no guards.
func (tr *Recorder) Record(rank int, phase string, cycle int, start, end sim.Time) {
	if tr == nil || end <= start {
		return
	}
	tr.Spans = append(tr.Spans, Span{Rank: rank, Phase: phase, Cycle: cycle, Start: start, End: end})
}

// Digest returns a SHA-256 hex digest over a canonical encoding of all
// spans in recorded order. Two runs of the simulator are behaviourally
// identical iff their digests match: the encoding covers every field
// including record order, so any divergence in scheduling, protocol
// timing or phase structure changes the digest. A nil recorder digests
// to the empty-input hash.
func (tr *Recorder) Digest() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	if tr != nil {
		for _, s := range tr.Spans {
			writeInt(int64(s.Rank))
			h.Write([]byte(s.Phase))
			h.Write([]byte{0})
			writeInt(int64(s.Cycle))
			writeInt(int64(s.Start))
			writeInt(int64(s.End))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// PhaseTotal sums the duration of all spans with the given phase.
func (tr *Recorder) PhaseTotal(phase string) sim.Time {
	if tr == nil {
		return 0
	}
	var total sim.Time
	for _, s := range tr.Spans {
		if s.Phase == phase {
			total += s.Duration()
		}
	}
	return total
}

// Ranks returns the sorted set of ranks with spans.
func (tr *Recorder) Ranks() []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range tr.Spans {
		if !seen[s.Rank] {
			seen[s.Rank] = true
			out = append(out, s.Rank)
		}
	}
	sort.Ints(out)
	return out
}

// Bounds returns the earliest start and latest end across all spans.
func (tr *Recorder) Bounds() (start, end sim.Time) {
	if tr == nil || len(tr.Spans) == 0 {
		return 0, 0
	}
	start = tr.Spans[0].Start
	for _, s := range tr.Spans {
		if s.Start < start {
			start = s.Start
		}
		if s.End > end {
			end = s.End
		}
	}
	return start, end
}

// interval is a half-open [start, end) range.
type interval struct{ start, end sim.Time }

// merged returns the sorted union of the intervals of all spans
// matching phase (across all ranks).
func (tr *Recorder) merged(phase string) []interval {
	var ivs []interval
	for _, s := range tr.Spans {
		if s.Phase == phase {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var out []interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Filter returns a new recorder holding only the spans for which pred
// is true (e.g. restrict to aggregator ranks).
func (tr *Recorder) Filter(pred func(Span) bool) *Recorder {
	out := New()
	if tr == nil {
		return out
	}
	for _, s := range tr.Spans {
		if pred(s) {
			out.Spans = append(out.Spans, s)
		}
	}
	return out
}

// MergedTotal returns the wall-clock time during which at least one
// rank was in the given phase (union of intervals, no double counting).
func (tr *Recorder) MergedTotal(phase string) sim.Time {
	if tr == nil {
		return 0
	}
	var total sim.Time
	for _, iv := range tr.merged(phase) {
		total += iv.end - iv.start
	}
	return total
}

// Overlap returns the total virtual time during which some rank was in
// phase a while some (possibly different) rank was in phase b — the
// machine-wide phase overlap the paper's algorithms try to maximise.
func (tr *Recorder) Overlap(a, b string) sim.Time {
	if tr == nil {
		return 0
	}
	ia, ib := tr.merged(a), tr.merged(b)
	var total sim.Time
	i, j := 0, 0
	for i < len(ia) && j < len(ib) {
		lo := ia[i].start
		if ib[j].start > lo {
			lo = ib[j].start
		}
		hi := ia[i].end
		if ib[j].end < hi {
			hi = ib[j].end
		}
		if hi > lo {
			total += hi - lo
		}
		if ia[i].end < ib[j].end {
			i++
		} else {
			j++
		}
	}
	return total
}

// phaseGlyphs maps phases to Gantt glyphs.
var phaseGlyphs = map[string]byte{
	PhaseShuffle: 's',
	PhaseWrite:   'W',
	PhaseRead:    'R',
	PhaseSync:    'x',
}

// Timeline renders an ASCII Gantt chart, one row per rank, width
// columns spanning the recorded time range. Later-recorded spans win
// ties within a column; overlapping phases on one rank render the
// phase that covers more of the column.
func (tr *Recorder) Timeline(width int) string {
	if tr == nil || len(tr.Spans) == 0 {
		return "(no spans)\n"
	}
	if width < 10 {
		width = 10
	}
	start, end := tr.Bounds()
	span := end - start
	if span <= 0 {
		return "(empty time range)\n"
	}
	ranks := tr.Ranks()
	rowIdx := make(map[int]int, len(ranks))
	for i, r := range ranks {
		rowIdx[r] = i
	}
	// Per row per column, accumulate coverage per phase and pick the max.
	cover := make([]map[string][]sim.Time, len(ranks))
	for i := range cover {
		cover[i] = map[string][]sim.Time{}
	}
	colDur := func(s Span, c int) sim.Time {
		c0 := start + sim.Time(int64(span)*int64(c)/int64(width))
		c1 := start + sim.Time(int64(span)*int64(c+1)/int64(width))
		lo, hi := s.Start, s.End
		if c0 > lo {
			lo = c0
		}
		if c1 < hi {
			hi = c1
		}
		if hi > lo {
			return hi - lo
		}
		return 0
	}
	for _, s := range tr.Spans {
		row := rowIdx[s.Rank]
		firstCol := int(int64(s.Start-start) * int64(width) / int64(span))
		lastCol := int(int64(s.End-start-1) * int64(width) / int64(span))
		if lastCol >= width {
			lastCol = width - 1
		}
		for c := firstCol; c <= lastCol; c++ {
			m := cover[row][s.Phase]
			if m == nil {
				m = make([]sim.Time, width)
				cover[row][s.Phase] = m
			}
			m[c] += colDur(s, c)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %v .. %v (%d cols, %v/col)\n", start, end, width, (end-start)/sim.Time(width))
	for i, r := range ranks {
		// Sorted phase order makes the tie-break (strict >) deterministic
		// instead of following map iteration order.
		phases := make([]string, 0, len(cover[i]))
		for phase := range cover[i] {
			phases = append(phases, phase)
		}
		sort.Strings(phases)
		line := make([]byte, width)
		for c := range line {
			line[c] = '.'
			var best sim.Time
			for _, phase := range phases {
				if cols := cover[i][phase]; cols[c] > best {
					best = cols[c]
					g, ok := phaseGlyphs[phase]
					if !ok {
						// Unknown phase: fall back to its first byte, or
						// '?' for an empty name (Record accepts any label).
						if phase == "" {
							g = '?'
						} else {
							g = phase[0]
						}
					}
					line[c] = g
				}
			}
		}
		fmt.Fprintf(&b, "rank %4d |%s|\n", r, line)
	}
	b.WriteString("legend: s=shuffle W=write R=read x=sync .=other/idle\n")
	return b.String()
}
