package simfs

import "testing"

// maxAIOWriteAllocsPerChunk gates the host allocations of one stripe
// chunk of an asynchronous call, in either direction, to a remote or a
// node-local target. A chunk is a pooled object whose events are bound
// once, so a chunk from a warm pool allocates nothing; the per-call
// future is shared by all of a call's chunks. The figure is the
// difference between calls of many and of few chunks (the same number
// of calls), divided by the extra chunks, so per-call and setup costs
// cancel out. It measures 0.00 in every cell; the margin is 0.5, as for
// the message gates (internal/mpi).
const maxAIOWriteAllocsPerChunk = 0.5

// TestAIOWriteAllocsPerChunk is the allocation gate for the simfs chunk
// path, the sibling of the message gates in internal/mpi: asynchronous
// writes and reads, from alternating client nodes to external targets
// and from node 0 to targets it hosts.
func TestAIOWriteAllocsPerChunk(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const calls, few, many = 16, 4, 20
	for _, read := range []bool{false, true} {
		for _, local := range []bool{false, true} {
			name := map[bool]string{false: "write", true: "read"}[read] + "/" + map[bool]string{false: "remote", true: "node-local"}[local]
			t.Run(name, func(t *testing.T) {
				k, _, fs := testFS(t, 1, func(c *Config) {
					if local {
						c.TargetNode = func(int) int { return 0 }
					}
				})
				f := fs.Open("alloc")
				// issue runs calls asynchronous calls of chunks stripe
				// chunks each to consecutive offsets. The file system
				// lives across runs, so its pools are warm after
				// AllocsPerRun's warm-up call.
				issue := func(chunks int) func() {
					return func() {
						size := int64(chunks) << 20
						for i := 0; i < calls; i++ {
							client := i % 2
							if local {
								client = 0
							}
							if read {
								f.AIORead(client, int64(i)*size, size, nil)
							} else {
								f.AIOWrite(client, int64(i)*size, size, nil)
							}
						}
						k.Run()
					}
				}
				aFew := testing.AllocsPerRun(5, issue(few))
				aMany := testing.AllocsPerRun(5, issue(many))
				extra := calls * (many - few)
				perChunk := (aMany - aFew) / float64(extra)
				t.Logf("%.2f allocs per stripe chunk (%d extra chunks)", perChunk, extra)
				if perChunk > maxAIOWriteAllocsPerChunk {
					t.Fatalf("%.2f allocs per chunk, gate is %.2f", perChunk, maxAIOWriteAllocsPerChunk)
				}
				if live := fs.LiveChunks(); live != 0 {
					t.Fatalf("%d chunks live after the run, want 0", live)
				}
			})
		}
	}
}

// TestChunksReturnToPool checks the file system's ownership of its
// stripe chunks: every chunk of a call is live while the call is in
// flight and back in its pool once the kernel drains.
func TestChunksReturnToPool(t *testing.T) {
	k, _, fs := testFS(t, 1, func(c *Config) { c.TargetNode = func(t int) int { return t % 2 } })
	f := fs.Open("pool")
	// Node 0 hosts targets 0 and 2, so a four-chunk call from it has
	// two node-local chunks and two remote ones.
	f.AIOWrite(0, 0, 4<<20, nil)
	f.AIORead(1, 0, 3<<20, nil)
	if live := fs.LiveChunks(); live != 7 {
		t.Fatalf("%d live chunks in flight, want 7", live)
	}
	k.Run()
	if live := fs.LiveChunks(); live != 0 {
		t.Fatalf("%d chunks live after the run, want 0", live)
	}
}
