package simfs

import "testing"

// aioWrites issues calls asynchronous writes of chunks stripe chunks
// each, from alternating client nodes to consecutive offsets, and runs
// them to completion.
func aioWrites(t testing.TB, calls, chunks int) {
	k, _, fs := testFS(t, 1, nil)
	f := fs.Open("alloc")
	size := int64(chunks) << 20
	for i := 0; i < calls; i++ {
		f.AIOWrite(i%2, int64(i)*size, size, nil)
	}
	k.Run()
}

// maxAIOWriteAllocsPerChunk gates the host allocations of one stripe
// chunk of an asynchronous write: the chunk's completion future, its
// NIC and target submissions with their callbacks, and its share of the
// call's join. The figure is the difference between calls of many and
// of few chunks (the same number of calls), divided by the extra
// chunks, so per-call and setup costs cancel out. It measures 7.27; the
// margin is 0.5, as for the message gates (internal/mpi).
const maxAIOWriteAllocsPerChunk = 7.77

// TestAIOWriteAllocsPerChunk is the allocation gate for the simfs chunk
// path, the sibling of the message gates in internal/mpi.
func TestAIOWriteAllocsPerChunk(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const calls, few, many = 16, 4, 20
	aFew := testing.AllocsPerRun(5, func() { aioWrites(t, calls, few) })
	aMany := testing.AllocsPerRun(5, func() { aioWrites(t, calls, many) })
	extra := calls * (many - few)
	perChunk := (aMany - aFew) / float64(extra)
	t.Logf("%.2f allocs per AIOWrite stripe chunk (%d extra chunks)", perChunk, extra)
	if perChunk > maxAIOWriteAllocsPerChunk {
		t.Fatalf("%.2f allocs per AIOWrite chunk, gate is %.2f", perChunk, maxAIOWriteAllocsPerChunk)
	}
}
