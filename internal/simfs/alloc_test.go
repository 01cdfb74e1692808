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

// maxColdAllocsPerChunk gates the host allocations of one stripe chunk
// issued on a fresh file system, whose pools start empty: the chunk and
// its server requests come from pool slabs, and the server queues they
// wait in are threaded through the requests themselves, so a cold chunk
// pays a share of one slab allocation and nothing else. It measures
// 0.07 for writes and for reads; a pool that allocated per object would
// pay one per chunk and one per server request, two or more, and a
// server queue that grew per flow would add about 0.2.
const maxColdAllocsPerChunk = 0.15

// TestAIOColdAllocsPerChunk is the cold-pool sibling of
// TestAIOWriteAllocsPerChunk: every run builds its own kernel, network
// and file system, as every simulation does, and issues all its calls
// before the kernel runs, so every chunk is in flight at once and the
// pools fill to the whole count. The difference between runs of many
// and of few chunks per call cancels the setup. Each call is one flow
// on the client NIC, and its chunks queue there behind each other; 20
// chunks per call is a shape where a per-flow queue that doubled as it
// grew paid about 0.2 allocs per chunk of a write.
func TestAIOColdAllocsPerChunk(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const calls, few, many = 16, 4, 20
	for _, read := range []bool{false, true} {
		t.Run(map[bool]string{false: "write", true: "read"}[read], func(t *testing.T) {
			issue := func(chunks int) func() {
				return func() { coldCalls(t, read, calls, chunks) }
			}
			aFew := testing.AllocsPerRun(5, issue(few))
			aMany := testing.AllocsPerRun(5, issue(many))
			extra := calls * (many - few)
			perChunk := (aMany - aFew) / float64(extra)
			t.Logf("%.2f allocs per cold stripe chunk (%d extra chunks)", perChunk, extra)
			if perChunk > maxColdAllocsPerChunk {
				t.Fatalf("%.2f allocs per cold chunk, gate is %.2f", perChunk, maxColdAllocsPerChunk)
			}
		})
	}
}

// coldCalls builds a fresh file system, issues calls asynchronous calls
// of chunks stripe chunks each from alternating client nodes to
// consecutive offsets, and runs them to completion.
func coldCalls(t testing.TB, read bool, calls, chunks int) {
	k, _, fs := testFS(t, 1, nil)
	f := fs.Open("cold")
	size := int64(chunks) << 20
	for i := 0; i < calls; i++ {
		if read {
			f.AIORead(i%2, int64(i)*size, size, nil)
		} else {
			f.AIOWrite(i%2, int64(i)*size, size, nil)
		}
	}
	k.Run()
	if live := fs.LiveChunks(); live != 0 {
		t.Fatalf("%d chunks live after the run, want 0", live)
	}
}
