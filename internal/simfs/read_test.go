package simfs

import (
	"bytes"
	"testing"

	"collio/internal/probe"
	"collio/internal/sim"
)

// syncRead times one blocking Read of size bytes at offset 0 from
// clientNode, with every target hosted on node 0 when localTargets is
// set.
func syncRead(t *testing.T, clientNode int, size int64, localTargets bool) sim.Time {
	k, _, fs := testFS(t, 1, func(c *Config) {
		if localTargets {
			c.TargetNode = func(int) int { return 0 }
		}
	})
	f := fs.Open("d")
	var done sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		f.Read(p, clientNode, 0, size, nil)
		done = p.Now()
	})
	k.Run()
	return done
}

// TestSyncReadDuration pins a remote 1 MiB read: ClientPerOp in the
// caller, then target service (TargetPerOp + size at TargetBandwidth),
// NetLatency on the wire and client NIC ingest (size at the NIC's
// InterBandwidth).
func TestSyncReadDuration(t *testing.T) {
	const (
		client = 10 * sim.Microsecond
		target = 50*sim.Microsecond + 2097152 // 1 MiB at 500 MB/s
		wire   = 5 * sim.Microsecond
		nic    = 349525 // 1 MiB at 3 GB/s
	)
	if got, want := syncRead(t, 1, 1<<20, false), sim.Time(client+target+wire+nic); got != want {
		t.Fatalf("remote read took %v, want %v", got, want)
	}
}

// TestLocalReadSkipsNIC: a read of a target hosted on the client's own
// node pays ClientPerOp on the request and the target's service, but
// neither wire latency nor the NIC.
func TestLocalReadSkipsNIC(t *testing.T) {
	const want = 10*sim.Microsecond + 10*sim.Microsecond + 50*sim.Microsecond + 2097152
	local, remote := syncRead(t, 0, 1<<20, true), syncRead(t, 1, 1<<20, true)
	if local != want {
		t.Fatalf("local read took %v, want %v", local, want)
	}
	if local >= remote {
		t.Fatalf("local read (%v) not faster than remote (%v)", local, remote)
	}
}

// TestReadDataRoundTrip writes a payload spanning three stripes and
// reads it back through the simulated read path, remote and local.
func TestReadDataRoundTrip(t *testing.T) {
	k, _, fs := testFS(t, 1, func(c *Config) {
		c.StripeSize = 1000
		c.TargetNode = func(tgt int) int { return tgt % 2 }
	})
	f := fs.Open("d")
	payload := make([]byte, 2500)
	for i := range payload {
		payload[i] = byte(i % 253)
	}
	got := make([]byte, 2500)
	gotAsync := make([]byte, 1200)
	k.Spawn("rw", func(p *sim.Proc) {
		f.Write(p, 0, 300, 2500, payload)
		f.Read(p, 1, 300, 2500, got)
		p.Wait(f.AIORead(0, 1000, 1200, gotAsync))
	})
	k.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("sync read returned different bytes")
	}
	if !bytes.Equal(gotAsync, payload[700:1900]) {
		t.Fatal("async read returned different bytes")
	}
}

// TestZeroSizeRead: a zero-byte read touches no target, costs
// ClientPerOp in the caller plus ClientPerOp of request overhead, and
// still counts as one read call.
func TestZeroSizeRead(t *testing.T) {
	k, _, fs := testFS(t, 1, nil)
	p := probe.New()
	fs.SetSinks(0, p, nil)
	f := fs.Open("d")
	var done sim.Time
	k.Spawn("r", func(pr *sim.Proc) {
		f.Read(pr, 2, 4096, 0, nil)
		done = pr.Now()
	})
	k.Run()
	if done != 20*sim.Microsecond {
		t.Fatalf("zero-size read took %v, want 20µs", done)
	}
	ctr := p.Counters()
	if ctr.Get(probe.CtrFSReads) != 1 || ctr.Get(probe.CtrFSReadBytes) != 0 {
		t.Fatalf("reads=%d read bytes=%d, want 1/0", ctr.Get(probe.CtrFSReads), ctr.Get(probe.CtrFSReadBytes))
	}
	for i := 0; i < fs.NumTargets(); i++ {
		if n := ctr.Get(probe.OSTCounter(i, "ops")); n != 0 {
			t.Fatalf("target %d served %d chunks for a zero-size read", i, n)
		}
	}
	if evs := p.Events(); len(evs) != 1 || evs[0].Kind != probe.KindFSRead || evs[0].Dur != 10*sim.Microsecond {
		t.Fatalf("events = %+v, want one %v span of 10µs", evs, probe.KindFSRead)
	}
}
