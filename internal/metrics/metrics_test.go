package metrics

import (
	"testing"

	"collio/internal/sim"
)

// TestHistBucketBoundaries pins the log-linear geometry: unit buckets
// below 8, then 8 sub-buckets per power-of-two octave, with HistBucket
// and HistBucketLow exact inverses at every boundary.
func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 1}, {7, 7}, // exact unit range
		{8, 8}, {9, 9}, {15, 15}, // first octave, width 1
		{16, 16}, {17, 16}, {18, 17}, {31, 23}, // width 2
		{32, 24}, {35, 24}, {36, 25}, {63, 31}, // width 4
		{64, 32}, {1 << 20, 8*17 + 8},
		{-5, 0}, // negatives clamp
	}
	for _, c := range cases {
		if got := HistBucket(c.v); got != c.want {
			t.Errorf("HistBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Boundary inversion: each bucket's low bound maps into the bucket,
	// and low-1 maps strictly below it.
	for i := 0; i < 200; i++ {
		lo := HistBucketLow(i)
		if got := HistBucket(lo); got != i {
			t.Fatalf("HistBucket(HistBucketLow(%d)=%d) = %d", i, lo, got)
		}
		if i > 0 {
			if got := HistBucket(lo - 1); got != i-1 {
				t.Fatalf("HistBucket(%d) = %d, want %d (upper edge of bucket %d)", lo-1, got, i-1, i-1)
			}
		}
		if hi := HistBucketLow(i + 1); hi <= lo {
			t.Fatalf("bucket %d empty: [%d, %d)", i, lo, hi)
		}
	}
}

func TestHistRecordAndQuantile(t *testing.T) {
	m := New(0)
	h := m.Hist("lat")
	for _, v := range []int64{1, 2, 2, 100, 1000} {
		h.Record(v)
	}
	if h.Count() != 5 || h.Sum() != 1105 || h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("p0 = %d, want 1", q)
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Errorf("p50 = %d, want 2", q)
	}
	// p100 lands in the bucket holding 1000: HistBucketLow rounds down.
	if q := h.Quantile(1); q > 1000 || q < 960 {
		t.Errorf("p100 = %d, want the 1000-bucket lower bound", q)
	}
}

// TestGaugeAddSpan checks ns-exact distribution of an interval across
// bucket boundaries.
func TestGaugeAddSpan(t *testing.T) {
	m := New(100)
	g := m.Gauge("busy", ModeSum)
	g.AddSpan(50, 250) // buckets 0:[50,100)=50, 1:[100,200)=100, 2:[200,250)=50
	want := []int64{50, 100, 50}
	got := g.Values()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if g.Total() != 200 {
		t.Fatalf("total = %d, want 200", g.Total())
	}
	// Exact bucket-aligned span touches no extra bucket.
	g2 := m.Gauge("busy2", ModeSum)
	g2.AddSpan(100, 200)
	if len(g2.Values()) != 2 || g2.Values()[0] != 0 || g2.Values()[1] != 100 {
		t.Fatalf("aligned span buckets = %v", g2.Values())
	}
}

func TestGaugeModes(t *testing.T) {
	m := New(10)
	mx := m.Gauge("depth", ModeMax)
	mx.Observe(5, 3)
	mx.Observe(7, 1)
	mx.Observe(25, 9)
	if v := mx.Values(); v[0] != 3 || v[2] != 9 {
		t.Fatalf("max buckets = %v", v)
	}
	if mx.Peak() != 9 {
		t.Fatalf("peak = %d", mx.Peak())
	}
	d := m.Gauge("occ", ModeDelta)
	d.Add(0, 100)
	d.Add(15, 200)
	d.Add(22, -100)
	if d.Peak() != 300 { // running sum peaks at 100+200
		t.Fatalf("delta peak = %d, want 300", d.Peak())
	}
	if d.Total() != 200 {
		t.Fatalf("delta net = %d, want 200", d.Total())
	}
}

func TestNilSinkIsNoOp(t *testing.T) {
	var m *Metrics
	if m.Enabled() {
		t.Fatal("nil sink enabled")
	}
	g := m.Gauge("x", ModeSum)
	g.Add(0, 1)
	g.Observe(0, 1)
	g.AddSpan(0, 10)
	h := m.Hist("y")
	h.Record(5)
	if g.Total() != 0 || h.Count() != 0 || m.Dump() != "" || m.NumBuckets() != 0 {
		t.Fatal("nil sink recorded something")
	}
	var p *Progress
	p.AddTotal(1)
	p.Done(1)
	p.Start()
	p.Stop()
}

func TestGaugeModeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mode mismatch")
		}
	}()
	m := New(0)
	m.Gauge("x", ModeSum)
	m.Gauge("x", ModeMax)
}

func TestResolutionDefault(t *testing.T) {
	if New(0).Resolution() != DefaultResolution {
		t.Fatal("default resolution not applied")
	}
	if New(sim.Time(42)).Resolution() != 42 {
		t.Fatal("explicit resolution not kept")
	}
	var m *Metrics
	if m.Resolution() != DefaultResolution {
		t.Fatal("nil resolution")
	}
}
