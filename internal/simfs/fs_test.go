//go:build go1.23

package simfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"collio/internal/sim"
	"collio/internal/simnet"
)

func testFS(t testing.TB, seed int64, mut func(*Config)) (*sim.Kernel, *simnet.Network, *FS) {
	t.Helper()
	k := sim.NewKernel(seed)
	net := simnet.New(k, simnet.Config{
		Nodes:          4,
		InterBandwidth: 3e9,
		InterLatency:   2 * sim.Microsecond,
		IntraBandwidth: 6e9,
		IntraLatency:   300 * sim.Nanosecond,
		MemBandwidth:   8e9,
	})
	cfg := Config{
		StripeSize:      1 << 20,
		NumTargets:      4,
		TargetBandwidth: 500e6,
		TargetPerOp:     50 * sim.Microsecond,
		NetLatency:      5 * sim.Microsecond,
		ClientPerOp:     10 * sim.Microsecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	fs, err := New(k, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, net, fs
}

func TestChunkifyAlignment(t *testing.T) {
	_, _, fs := testFS(t, 1, func(c *Config) { c.StripeSize = 100 })
	f := fs.Open("x")
	var chunks []extent
	for ch := range f.chunkify(250, 300) {
		chunks = append(chunks, ch)
	}
	want := []extent{{250, 300}, {300, 400}, {400, 500}, {500, 550}}
	if len(chunks) != len(want) {
		t.Fatalf("chunks = %v, want %v", chunks, want)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Fatalf("chunk %d = %v, want %v", i, chunks[i], want[i])
		}
	}
}

func TestTargetRoundRobin(t *testing.T) {
	_, _, fs := testFS(t, 1, func(c *Config) { c.StripeSize = 10; c.NumTargets = 3 })
	f := fs.Open("x")
	for _, c := range []struct {
		off  int64
		want int
	}{{0, 0}, {9, 0}, {10, 1}, {25, 2}, {30, 0}, {95, 0}} {
		if got := f.targetFor(c.off); got != c.want {
			t.Fatalf("targetFor(%d) = %d, want %d", c.off, got, c.want)
		}
	}
}

func TestSyncWriteBlocksForDuration(t *testing.T) {
	k, _, fs := testFS(t, 1, nil)
	f := fs.Open("data")
	var done sim.Time
	k.Spawn("writer", 0, func(p *sim.Proc) {
		f.Write(p, 0, 0, 4<<20, nil) // 4 MiB over 4 targets
		done = p.Now()
	})
	k.Run()
	// Each 1 MiB chunk: ~2ms at 500 MB/s on its own target, plus
	// overheads; they run in parallel across 4 targets, so total ~2.1ms
	// once NIC injection (4MiB at 3GB/s ~ 1.4ms serial) is accounted.
	if done < 2*sim.Millisecond || done > 5*sim.Millisecond {
		t.Fatalf("sync write took %v, outside sane window", done)
	}
}

func TestAIOWriteProgressesWhileProcessBusy(t *testing.T) {
	k, _, fs := testFS(t, 1, nil)
	f := fs.Open("data")
	var writeDone, procDone sim.Time
	k.Spawn("writer", 0, func(p *sim.Proc) {
		fut := f.AIOWrite(0, 0, 4<<20, nil)
		fut.Then(sim.Func(func() { writeDone = k.Now() }))
		p.Sleep(100 * sim.Millisecond) // process busy elsewhere
		p.Wait(fut)
		procDone = p.Now()
	})
	k.Run()
	if writeDone == 0 || writeDone > 10*sim.Millisecond {
		t.Fatalf("aio write completed at %v; should progress during the sleep", writeDone)
	}
	if procDone != 100*sim.Millisecond {
		t.Fatalf("process finished at %v, want exactly its sleep end", procDone)
	}
}

func TestWriteDataReadBack(t *testing.T) {
	k, _, fs := testFS(t, 1, nil)
	f := fs.Open("data")
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	k.Spawn("w", 0, func(p *sim.Proc) {
		f.Write(p, 0, 500, 3000, payload)
	})
	k.Run()
	if got := f.ReadBack(500, 3000); !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch")
	}
	// Bytes before the write read as zero.
	for _, b := range f.ReadBack(0, 500) {
		if b != 0 {
			t.Fatal("unwritten prefix non-zero")
		}
	}
}

func TestCoverageCoalescing(t *testing.T) {
	k, _, fs := testFS(t, 1, nil)
	f := fs.Open("data")
	k.Spawn("w", 0, func(p *sim.Proc) {
		f.Write(p, 0, 100, 50, nil)
		f.Write(p, 0, 0, 100, nil)
		f.Write(p, 0, 200, 10, nil)
	})
	k.Run()
	cov := f.Coverage()
	if len(cov) != 2 || cov[0] != [2]int64{0, 150} || cov[1] != [2]int64{200, 210} {
		t.Fatalf("coverage = %v", cov)
	}
	if f.Contiguous() {
		t.Fatal("file with a hole reported contiguous")
	}
	k2, _, fs2 := testFS(t, 1, nil)
	g := fs2.Open("y")
	k2.Spawn("w", 0, func(p *sim.Proc) {
		g.Write(p, 0, 0, 100, nil)
		g.Write(p, 0, 100, 100, nil)
	})
	k2.Run()
	if !g.Contiguous() || g.Size() != 200 {
		t.Fatalf("dense file: contiguous=%v size=%d", g.Contiguous(), g.Size())
	}
}

func TestLocalTargetSkipsNIC(t *testing.T) {
	// With node-local targets, a write from the hosting node should be
	// faster than one from a remote node because it skips NIC + wire.
	run := func(clientNode int) sim.Time {
		k, _, fs := testFS(t, 1, func(c *Config) {
			c.NumTargets = 1
			c.TargetNode = func(t int) int { return 0 }
		})
		f := fs.Open("d")
		var done sim.Time
		k.Spawn("w", 0, func(p *sim.Proc) {
			f.Write(p, clientNode, 0, 1<<20, nil)
			done = p.Now()
		})
		k.Run()
		return done
	}
	local, remote := run(0), run(1)
	if local >= remote {
		t.Fatalf("local write (%v) not faster than remote (%v)", local, remote)
	}
}

func TestTargetContention(t *testing.T) {
	// Two writes to the same stripe serialise at the target; writes to
	// different stripes run in parallel.
	elapsed := func(off2 int64) sim.Time {
		k, _, fs := testFS(t, 1, nil)
		f := fs.Open("d")
		var done sim.Time
		k.Spawn("w", 0, func(p *sim.Proc) {
			a := f.AIOWrite(0, 0, 1<<20, nil)
			b := f.AIOWrite(0, off2, 1<<20, nil)
			p.WaitAll(a, b)
			done = p.Now()
		})
		k.Run()
		return done
	}
	same := elapsed(4 << 20) // same target (4 targets, stripe 1 MiB)
	diff := elapsed(1 << 20) // neighbouring target
	if same <= diff {
		t.Fatalf("same-target writes (%v) should be slower than different-target (%v)", same, diff)
	}
}

func TestOpenReturnsSameFile(t *testing.T) {
	_, _, fs := testFS(t, 1, nil)
	if fs.Open("a") != fs.Open("a") {
		t.Fatal("Open created a duplicate file")
	}
	if fs.Open("a") == fs.Open("b") {
		t.Fatal("distinct names share a file")
	}
}

func TestBadConfigRejected(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{Nodes: 1, InterBandwidth: 1e9, IntraBandwidth: 1e9, MemBandwidth: 1e9})
	if _, err := New(k, net, Config{StripeSize: 0, NumTargets: 1}); err == nil {
		t.Fatal("zero stripe accepted")
	}
	if _, err := New(k, net, Config{StripeSize: 1, NumTargets: 0}); err == nil {
		t.Fatal("zero targets accepted")
	}
}

// Property: chunkify covers exactly [off, off+size) with no gaps or
// overlaps and respects stripe boundaries.
func TestChunkifyProperty(t *testing.T) {
	_, _, fs := testFS(t, 1, func(c *Config) { c.StripeSize = 64 })
	f := fs.Open("p")
	prop := func(off16 uint16, size16 uint16) bool {
		off, size := int64(off16), int64(size16)
		if size == 0 {
			for range f.chunkify(off, size) {
				return false
			}
			return true
		}
		cur := off
		for ch := range f.chunkify(off, size) {
			if ch.off != cur || ch.end <= ch.off {
				return false
			}
			if ch.off/64 != (ch.end-1)/64 { // must not span a stripe
				return false
			}
			cur = ch.end
		}
		return cur == off+size
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
