package simfs

import "testing"

// benchChunks measures one asynchronous file-system call of two stripe
// chunks (2 MiB at a 1 MiB stripe): the chunk split, the client NIC and
// wire legs, the target submissions and the completion join. Calls go
// out in batches of 16 from alternating client nodes to consecutive
// offsets, so targets see queueing; each batch runs to completion.
func benchChunks(b *testing.B, read bool) {
	const (
		batch = 16
		size  = 2 << 20
	)
	b.ReportAllocs()
	k, _, fs := testFS(b, 1, nil)
	f := fs.Open("bench")
	for i := 0; i < b.N; i++ {
		off := int64(i%batch) * size
		if read {
			f.AIORead(i%2, off, size, nil)
		} else {
			f.AIOWrite(i%2, off, size, nil)
		}
		if i%batch == batch-1 {
			k.Run()
		}
	}
	k.Run()
}

func BenchmarkAIOWrite(b *testing.B) { benchChunks(b, false) }
func BenchmarkAIORead(b *testing.B)  { benchChunks(b, true) }

// benchColdChunks measures a whole cold simulation of 16 asynchronous
// calls of 64 stripe chunks each, all in flight at once, on a fresh
// file system per iteration (the TestAIOColdAllocsPerChunk shape at
// its larger size): setup, the pools' fill from empty and the run.
func benchColdChunks(b *testing.B, read bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coldCalls(b, read, 16, 64)
	}
}

func BenchmarkAIOWriteCold(b *testing.B) { benchColdChunks(b, false) }
func BenchmarkAIOReadCold(b *testing.B)  { benchColdChunks(b, true) }
