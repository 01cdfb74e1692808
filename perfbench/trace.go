package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one op share Op; Parent is the enclosing span's
// ID (-1 for an op's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory; writeSpans writes
// them out when the run ends. A nil tracer times calls without
// recording them, so traced and untraced passes share one code path.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	// op is the current op's id; ops counts the ops begun.
	op, ops int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new op: spans begun from now on carry its id.
func (t *tracer) nextOp() {
	if t == nil {
		return
	}
	t.op = t.ops
	t.ops++
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(layer, name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// do runs f inside a span and returns how long f took.
func (t *tracer) do(layer, name string, f func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	t.begin(layer, name)
	f()
	return t.end()
}

// selfMS returns each layer's self time in ms: its spans' durations
// minus the parts of them their child spans cover.
func (t *tracer) selfMS() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Layer] += float64(self[i]) / float64(time.Millisecond)
	}
	return out
}

// writeSpans writes the span file of a traced run and prints the
// per-layer self times and the tracing overhead beside the metrics.
func (r *report) writeSpans(o options, t *tracer, a *acc) error {
	self := t.selfMS()
	untraced, traced := a.sum["wall.untraced_s"], a.sum["wall.traced_s"]
	doc := struct {
		Workload         string             `json:"workload"`
		Seed             int64              `json:"seed"`
		UntracedWallS    float64            `json:"untraced_wall_s"`
		TracedWallS      float64            `json:"traced_wall_s"`
		TracingOverheadS float64            `json:"tracing_overhead_s"`
		SelfMS           map[string]float64 `json:"self_ms"`
		Layers           map[string]float64 `json:"layer_metrics"`
		Spans            []span             `json:"spans"`
	}{r.workload, o.seed, untraced, traced, traced - untraced, self, r.values, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", r.workload, o.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	r.note("%d spans written to %s", len(t.spans), path)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		r.extra = append(r.extra, fmt.Sprintf("%-26s %14.6g ms", "self_ms."+l, self[l]))
	}
	r.extra = append(r.extra,
		fmt.Sprintf("%-26s %14.6g s (untraced wall_s %.6g, traced wall_s %.6g)", "tracing_overhead_s", traced-untraced, untraced, traced),
		fmt.Sprintf("%-26s %14.6g ratio (%d of %d ops)", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted))
	return nil
}
