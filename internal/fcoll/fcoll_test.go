package fcoll_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"collio/internal/datatype"
	"collio/internal/fcoll"
	"collio/internal/mpi"
	"collio/internal/mpiio"
	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/simfs"
	"collio/internal/simnet"
)

// rig is a full simulated cluster for collective-write tests.
type rig struct {
	k    *sim.Kernel
	w    *mpi.World
	fs   *simfs.FS
	file *mpiio.File
}

func newRig(t *testing.T, nprocs, ranksPerNode int, seed int64) *rig {
	t.Helper()
	k := sim.NewKernel(seed)
	nodes := (nprocs + ranksPerNode - 1) / ranksPerNode
	net := simnet.New(k, simnet.Config{
		Nodes:          nodes,
		InterBandwidth: 3e9,
		InterLatency:   2 * sim.Microsecond,
		IntraBandwidth: 6e9,
		IntraLatency:   300 * sim.Nanosecond,
		MemBandwidth:   8e9,
	})
	cfg := mpi.DefaultConfig(nprocs, ranksPerNode)
	cfg.EagerLimit = 8 << 10 // small, so tests exercise both protocols
	w, err := mpi.NewWorld(k, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := simfs.New(k, net, simfs.Config{
		StripeSize:      16 << 10,
		NumTargets:      4,
		TargetBandwidth: 500e6,
		TargetPerOp:     20 * sim.Microsecond,
		NetLatency:      5 * sim.Microsecond,
		ClientPerOp:     5 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, w: w, fs: fs, file: mpiio.Open(w, fs.Open("out"))}
}

// run executes one collective write on all ranks and returns rank 0's
// result and the world's elapsed time.
func (rg *rig) run(t *testing.T, jv *fcoll.JobView, opts fcoll.Options) (fcoll.Result, sim.Time) {
	t.Helper()
	rg.file.SetCollectiveOptions(opts)
	results := make([]fcoll.Result, rg.w.Size())
	rg.w.Launch(func(r *mpi.Rank) {
		res, err := rg.file.WriteAll(r, jv)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		results[r.ID()] = res
	})
	rg.k.Run()
	return results[0], rg.w.Elapsed()
}

// blockView builds a dense 1-D view: rank i writes one contiguous block
// of blockSize bytes at offset i*blockSize (the IOR pattern).
func blockView(t *testing.T, nprocs int, blockSize int64, data bool, seed int64) *fcoll.JobView {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ranks := make([]fcoll.RankView, nprocs)
	for i := range ranks {
		ranks[i].Extents = []datatype.Extent{{Off: int64(i) * blockSize, Len: blockSize}}
		if data {
			b := make([]byte, blockSize)
			rng.Read(b)
			ranks[i].Data = b
		}
	}
	jv, err := fcoll.NewJobView(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return jv
}

// stridedView builds a dense 2-D interleaved view: the file is rows of
// nprocs segments; rank i owns segment i of every row (the Tile I/O
// pattern for one tile row).
func stridedView(t *testing.T, nprocs int, segSize int64, rows int, data bool, seed int64) *fcoll.JobView {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rowLen := segSize * int64(nprocs)
	ranks := make([]fcoll.RankView, nprocs)
	for i := range ranks {
		var es []datatype.Extent
		for r := 0; r < rows; r++ {
			es = append(es, datatype.Extent{Off: int64(r)*rowLen + int64(i)*segSize, Len: segSize})
		}
		ranks[i].Extents = es
		if data {
			b := make([]byte, segSize*int64(rows))
			rng.Read(b)
			ranks[i].Data = b
		}
	}
	jv, err := fcoll.NewJobView(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return jv
}

// randomDenseView splits [0, total) at random cut points and deals the
// pieces to ranks round-robin with random skips — an adversarial dense
// view.
func randomDenseView(t *testing.T, nprocs int, total int64, seed int64) *fcoll.JobView {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var cuts []int64
	cuts = append(cuts, 0)
	for pos := int64(0); pos < total; {
		step := int64(rng.Intn(2000) + 16)
		pos += step
		if pos > total {
			pos = total
		}
		cuts = append(cuts, pos)
	}
	ranks := make([]fcoll.RankView, nprocs)
	for i := 0; i+1 < len(cuts); i++ {
		r := rng.Intn(nprocs)
		ranks[r].Extents = append(ranks[r].Extents, datatype.Extent{Off: cuts[i], Len: cuts[i+1] - cuts[i]})
	}
	for i := range ranks {
		// Extents are appended in ascending order globally, so each
		// rank's list is already sorted.
		sz := datatype.TotalLen(ranks[i].Extents)
		b := make([]byte, sz)
		rng.Read(b)
		ranks[i].Data = b
	}
	jv, err := fcoll.NewJobView(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return jv
}

func verifyFile(t *testing.T, rg *rig, jv *fcoll.JobView) {
	t.Helper()
	want := jv.ExpectedFile()
	raw := rg.file.Raw()
	if !raw.Contiguous() {
		t.Fatalf("file not contiguous: coverage %v", raw.Coverage())
	}
	if raw.Size() != int64(len(want)) {
		t.Fatalf("file size %d, want %d", raw.Size(), len(want))
	}
	got := raw.ReadBack(0, int64(len(want)))
	if !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("file differs first at offset %d: got %d want %d", i, got[i], want[i])
			}
		}
	}
}

// TestAllCombinationsBlockView is the core correctness matrix: every
// overlap algorithm crossed with every transfer primitive must produce
// a byte-identical file for the 1-D block (IOR-style) pattern, with a
// buffer small enough to force many cycles.
func TestAllCombinationsBlockView(t *testing.T) {
	for _, algo := range fcoll.Algorithms {
		for _, prim := range fcoll.AllPrimitives {
			algo, prim := algo, prim
			t.Run(fmt.Sprintf("%v/%v", algo, prim), func(t *testing.T) {
				rg := newRig(t, 6, 2, 11)
				jv := blockView(t, 6, 40<<10, true, 7)
				res, _ := rg.run(t, jv, fcoll.Options{
					Algorithm:  algo,
					Primitive:  prim,
					BufferSize: 32 << 10, // forces many cycles over 240 KiB
				})
				verifyFile(t, rg, jv)
				if res.Cycles < 2 {
					t.Fatalf("expected multiple cycles, got %d", res.Cycles)
				}
			})
		}
	}
}

// TestAllCombinationsStridedView repeats the matrix for an interleaved
// pattern that produces multi-segment send and receive maps (packing,
// unpacking, multi-Put paths).
func TestAllCombinationsStridedView(t *testing.T) {
	for _, algo := range fcoll.Algorithms {
		for _, prim := range fcoll.AllPrimitives {
			algo, prim := algo, prim
			t.Run(fmt.Sprintf("%v/%v", algo, prim), func(t *testing.T) {
				rg := newRig(t, 4, 2, 13)
				jv := stridedView(t, 4, 3000, 24, true, 9)
				_, _ = rg.run(t, jv, fcoll.Options{
					Algorithm:  algo,
					Primitive:  prim,
					BufferSize: 24 << 10,
				})
				verifyFile(t, rg, jv)
			})
		}
	}
}

// TestHierarchicalReadBack is the ReadBack matrix of the two-level
// family. Several ranks share a node and every request is below the
// routing threshold (the rig's 8 KiB eager limit), so members ship
// their requests to the node leader — one routed request as is, several
// gathered into one message — and leaders assemble the combined
// messages. Every overlap algorithm must produce the byte-identical
// file on a block and a strided view, and the pre-combine phase must
// have run.
func TestHierarchicalReadBack(t *testing.T) {
	views := []struct {
		name    string
		np, rpn int
		jv      func(t *testing.T) *fcoll.JobView
	}{
		{"block", 6, 3, func(t *testing.T) *fcoll.JobView { return blockView(t, 6, 6<<10, true, 23) }},
		{"strided", 8, 4, func(t *testing.T) *fcoll.JobView { return stridedView(t, 8, 500, 48, true, 21) }},
	}
	for _, v := range views {
		for _, algo := range fcoll.Algorithms {
			v, algo := v, algo
			t.Run(fmt.Sprintf("%s/%v", v.name, algo), func(t *testing.T) {
				rg := newRig(t, v.np, v.rpn, 17)
				jv := v.jv(t)
				p := probe.New()
				rg.run(t, jv, fcoll.Options{
					Algorithm:    algo,
					Primitive:    fcoll.TwoSided,
					BufferSize:   16 << 10,
					Hierarchical: true,
					Observers:    []fcoll.Observer{{Probe: p}},
				})
				verifyFile(t, rg, jv)
				combines := 0
				for _, e := range p.Events() {
					if e.Kind == probe.KindPhase && e.Cause == probe.CausePreCombine {
						combines++
					}
				}
				if combines == 0 {
					t.Fatal("no pre-combine phase ran: nothing was routed through a node leader")
				}
			})
		}
	}
}

// TestRandomViewsProperty drives random adversarial dense views through
// a rotating subset of combinations and checks byte-exactness each
// time.
func TestRandomViewsProperty(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		algo := fcoll.Algorithms[trial%len(fcoll.Algorithms)]
		prim := fcoll.Primitives[trial%len(fcoll.Primitives)]
		t.Run(fmt.Sprintf("trial%d_%v_%v", trial, algo, prim), func(t *testing.T) {
			np := 3 + trial%4
			rg := newRig(t, np, 2, int64(100+trial))
			jv := randomDenseView(t, np, 150_000+int64(trial)*13_000, int64(trial))
			_, _ = rg.run(t, jv, fcoll.Options{
				Algorithm:  algo,
				Primitive:  prim,
				BufferSize: 16 << 10,
			})
			verifyFile(t, rg, jv)
		})
	}
}

func TestSingleCycle(t *testing.T) {
	// Buffer larger than the whole file: exactly one cycle, all
	// algorithms must still work (loop edge cases).
	for _, algo := range fcoll.Algorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			rg := newRig(t, 4, 2, 3)
			jv := blockView(t, 4, 10<<10, true, 5)
			res, _ := rg.run(t, jv, fcoll.Options{
				Algorithm:  algo,
				BufferSize: 4 << 20,
			})
			if res.Cycles != 1 {
				t.Fatalf("cycles = %d, want 1", res.Cycles)
			}
			verifyFile(t, rg, jv)
		})
	}
}

func TestSingleRankWorld(t *testing.T) {
	for _, prim := range fcoll.AllPrimitives {
		prim := prim
		t.Run(prim.String(), func(t *testing.T) {
			rg := newRig(t, 1, 1, 3)
			jv := blockView(t, 1, 50<<10, true, 5)
			_, _ = rg.run(t, jv, fcoll.Options{
				Algorithm:  fcoll.WriteComm2Overlap,
				Primitive:  prim,
				BufferSize: 16 << 10,
			})
			verifyFile(t, rg, jv)
		})
	}
}

func TestExplicitAggregatorCount(t *testing.T) {
	rg := newRig(t, 8, 4, 3)
	jv := blockView(t, 8, 20<<10, true, 5)
	aggWriters := 0
	rg.file.SetCollectiveOptions(fcoll.Options{
		Algorithm:   fcoll.WriteOverlap,
		BufferSize:  16 << 10,
		Aggregators: 3,
	})
	results := make([]fcoll.Result, 8)
	rg.w.Launch(func(r *mpi.Rank) {
		res, err := rg.file.WriteAll(r, jv)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		results[r.ID()] = res
	})
	rg.k.Run()
	for _, res := range results {
		if res.Aggregator {
			aggWriters++
		}
	}
	if aggWriters != 3 {
		t.Fatalf("aggregators = %d, want 3", aggWriters)
	}
	verifyFile(t, rg, jv)
}

func TestBytesAccounting(t *testing.T) {
	rg := newRig(t, 4, 2, 3)
	jv := blockView(t, 4, 25<<10, true, 5)
	rg.file.SetCollectiveOptions(fcoll.Options{Algorithm: fcoll.NoOverlap, BufferSize: 32 << 10})
	var written, sent int64
	rg.w.Launch(func(r *mpi.Rank) {
		res, err := rg.file.WriteAll(r, jv)
		if err != nil {
			t.Errorf("%v", err)
		}
		written += res.BytesWritten
		sent += res.BytesSent
	})
	rg.k.Run()
	if written != 100<<10 {
		t.Fatalf("written = %d, want %d", written, 100<<10)
	}
	if sent != 100<<10 {
		t.Fatalf("sent = %d, want %d", sent, 100<<10)
	}
}

func TestSuccessiveCollectivesOnOneFile(t *testing.T) {
	// Two collectives back to back must not cross-match messages.
	rg := newRig(t, 4, 2, 3)
	jvA := blockView(t, 4, 12<<10, true, 5)
	rg.file.SetCollectiveOptions(fcoll.Options{Algorithm: fcoll.WriteComm2Overlap, BufferSize: 8 << 10})
	rg.w.Launch(func(r *mpi.Rank) {
		if _, err := rg.file.WriteAll(r, jvA); err != nil {
			t.Errorf("%v", err)
		}
		if _, err := rg.file.WriteAll(r, jvA); err != nil {
			t.Errorf("%v", err)
		}
	})
	rg.k.Run()
	verifyFile(t, rg, jvA)
}

func TestInvalidViewsRejected(t *testing.T) {
	// Overlapping ranks.
	_, err := fcoll.NewJobView([]fcoll.RankView{
		{Extents: []datatype.Extent{{Off: 0, Len: 100}}},
		{Extents: []datatype.Extent{{Off: 50, Len: 100}}},
	})
	if err == nil {
		t.Fatal("overlapping view accepted")
	}
	// Hole.
	_, err = fcoll.NewJobView([]fcoll.RankView{
		{Extents: []datatype.Extent{{Off: 0, Len: 100}}},
		{Extents: []datatype.Extent{{Off: 200, Len: 100}}},
	})
	if err == nil {
		t.Fatal("holey view accepted")
	}
	// Data length mismatch.
	_, err = fcoll.NewJobView([]fcoll.RankView{
		{Extents: []datatype.Extent{{Off: 0, Len: 100}}, Data: make([]byte, 50)},
	})
	if err == nil {
		t.Fatal("bad data length accepted")
	}
	// Empty.
	if _, err := fcoll.NewJobView(nil); err == nil {
		t.Fatal("empty view accepted")
	}
}

func TestDeterministicCollective(t *testing.T) {
	run := func() sim.Time {
		rg := newRig(t, 6, 3, 77)
		jv := blockView(t, 6, 30<<10, false, 5)
		_, elapsed := rg.run(t, jv, fcoll.Options{
			Algorithm:  fcoll.WriteComm2Overlap,
			BufferSize: 32 << 10,
		})
		return elapsed
	}
	if run() != run() {
		t.Fatal("collective write not deterministic")
	}
}

func TestSymbolicMatchesDataModeTopology(t *testing.T) {
	// Symbolic and data mode must produce identical cycle structure and
	// byte accounting (data mode only adds real copies).
	get := func(data bool) (int, int64) {
		rg := newRig(t, 4, 2, 9)
		jv := blockView(t, 4, 30<<10, data, 5)
		res, _ := rg.run(t, jv, fcoll.Options{Algorithm: fcoll.WriteOverlap, BufferSize: 16 << 10})
		return res.Cycles, res.BytesWritten
	}
	c1, w1 := get(true)
	c2, w2 := get(false)
	if c1 != c2 || w1 != w2 {
		t.Fatalf("data mode (%d,%d) != symbolic (%d,%d)", c1, w1, c2, w2)
	}
}
