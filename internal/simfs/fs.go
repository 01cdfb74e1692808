//go:build go1.23

// Package simfs models a striped parallel file system in the style of
// BeeGFS, the file system used on both clusters in the reproduced paper.
// A file is striped round-robin over storage targets; each target is a
// FIFO bandwidth server. Writes decompose into stripe-sized chunks that
// travel over the client's NIC (unless the target is node-local, as on
// the crill cluster where storage lives in the compute nodes) and then
// queue at their target.
//
// Two write paths exist, matching the paper's distinction:
//
//   - Write: synchronous (POSIX pwrite); the calling process blocks for
//     the duration and — critically — is outside the MPI library, so no
//     communication progress happens on its behalf.
//   - AIOWrite: asynchronous (aio_write / MPI_File_iwrite); chunk
//     traffic is driven entirely by simulation events ("an OS thread"),
//     so it progresses regardless of what the calling process does.
package simfs

import (
	"fmt"
	"iter"
	"sort"

	"collio/internal/metrics"
	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/simnet"
)

// Config describes the file system of one simulated cluster.
type Config struct {
	// StripeSize is the striping unit (1 MiB in the paper's setups).
	StripeSize int64
	// NumTargets is the number of storage targets (16 in the paper).
	NumTargets int
	// TargetBandwidth is the sustained write bandwidth of one target in
	// bytes per second.
	TargetBandwidth float64
	// TargetPerOp is the fixed per-request overhead at a target (seek /
	// request processing).
	TargetPerOp sim.Time
	// TargetNoise, if non-nil, perturbs each target service time
	// (shared storage systems such as Ibex's).
	TargetNoise func(rng func() float64) float64
	// NetLatency is the client-to-storage one-way latency.
	NetLatency sim.Time
	// TargetNode, if non-nil, maps a target index to the compute node
	// hosting it (crill: two HDDs in each of the 16 compute nodes).
	// Writes from that node to that target skip the NIC; all other
	// writes consume client NIC injection bandwidth. When nil, storage
	// is external and every write crosses the client NIC.
	TargetNode func(target int) int
	// ClientPerOp is the client-side syscall/request overhead charged
	// once per write call.
	ClientPerOp sim.Time
}

func (c *Config) validate() error {
	if c.StripeSize <= 0 {
		return fmt.Errorf("simfs: StripeSize must be positive, got %d", c.StripeSize)
	}
	if c.NumTargets <= 0 {
		return fmt.Errorf("simfs: NumTargets must be positive, got %d", c.NumTargets)
	}
	return nil
}

// FS is an instantiated file system.
type FS struct {
	k       *sim.Kernel
	net     *simnet.Network
	cfg     Config
	targets []sim.Server
	files   map[string]*File

	// probe and met are the sinks (SetSinks). chunks pools the stripe
	// chunks; its live count is those taken and not returned. ostDepth
	// caches each target's queue-occupancy gauge, and ostCtr its "bytes"
	// and "ops" counter names (built when a probe is first attached), so
	// the per-chunk observations make no map lookup and no string.
	probe    *probe.Probe
	met      *metrics.Metrics
	chunks   sim.Pool[chunk]
	ostDepth []*metrics.Gauge
	ostCtr   [][2]string
}

// New creates a file system whose chunk traffic shares the given
// network's client NICs, with every target on kernel k.
func New(k *sim.Kernel, net *simnet.Network, cfg Config) (*FS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	fs := &FS{k: k, net: net, cfg: cfg, files: make(map[string]*File), ostDepth: make([]*metrics.Gauge, cfg.NumTargets)}
	fs.chunks = sim.NewPool(func(c *chunk) **chunk { return &c.next }, bindChunk)
	var noise func() float64
	if cfg.TargetNoise != nil {
		draw := k.Rand().Float64 // one method value, not one per service
		noise = func() float64 { return cfg.TargetNoise(draw) }
	}
	fs.targets = make([]sim.Server, cfg.NumTargets)
	for i := range fs.targets {
		k.InitServer(&fs.targets[i], cfg.TargetBandwidth, cfg.TargetPerOp)
		fs.targets[i].Noise = noise
	}
	return fs, nil
}

// Config returns the file system configuration.
func (fs *FS) Config() Config { return fs.cfg }

// NumTargets returns the storage-target count.
func (fs *FS) NumTargets() int { return len(fs.targets) }

// SetSinks attaches the file system's observability sinks (nil
// detaches): probe p receives the client-side events and the
// per-target counters and occupancy samples; metrics m receives the
// targets' busy-time, queue-occupancy and per-chunk service series plus
// the client-observed chunk latency of every write and read.
// Recording is host-side appends at instants the chunk path already
// visits, plus one zero-delay latency event per chunk — timing and
// digests are unchanged.
func (fs *FS) SetSinks(p *probe.Probe, m *metrics.Metrics) {
	fs.probe, fs.met = p, m
	if p != nil && fs.ostCtr == nil {
		fs.ostCtr = make([][2]string, len(fs.targets))
		for i := range fs.ostCtr {
			fs.ostCtr[i] = [2]string{probe.OSTCounter(i, "bytes"), probe.OSTCounter(i, "ops")}
		}
	}
	for i := range fs.targets {
		srv := &fs.targets[i]
		srv.ObserveService, fs.ostDepth[i] = nil, nil
		if m == nil {
			continue
		}
		fs.ostDepth[i] = m.Gauge(metrics.OSTDepth(i), metrics.ModeMax)
		busy := m.Gauge(metrics.OSTBusy(i), metrics.ModeSum)
		svc := m.Hist(metrics.OSTService)
		srv.ObserveService = func(start, end sim.Time) {
			busy.AddSpan(start, end)
			svc.Record(int64(end - start))
		}
	}
}

// sampleOSTQueue emits the occupancy sample for one stripe chunk: the
// backlog the chunk finds when it reaches its storage target, just
// before it enqueues.
func (fs *FS) sampleOSTQueue(clientNode, target int, size int64) {
	k, p := fs.k, fs.probe
	if g := fs.ostDepth[target]; g != nil {
		// Occupancy including the arriving chunk (QueueDepth counts only
		// once arrival delays have elapsed, and the chunk has not yet
		// enqueued here).
		g.Observe(k.Now(), int64(fs.targets[target].QueueDepth()+1))
	}
	if p == nil {
		return
	}
	now := k.Now()
	est := fs.targets[target].BusyUntil() - now
	if est < 0 {
		est = 0
	}
	p.Emit(probe.Event{
		At: now, Dur: est, Layer: probe.LayerFS, Kind: probe.KindOSTQueue,
		Rank: clientNode, Peer: -1, Cycle: -1, Size: size, V: int64(target),
	})
}

// Open returns the named file, creating it empty if needed.
func (fs *FS) Open(name string) *File {
	if f, ok := fs.files[name]; ok {
		return f
	}
	f := &File{fs: fs, name: name}
	fs.files[name] = f
	return f
}

// File is one striped file.
type File struct {
	fs   *FS
	name string

	data    []byte   // sparse backing store, grown on demand (data mode)
	written []extent // merged written ranges (both modes)
}

type extent struct{ off, end int64 }

// Name returns the file name.
func (f *File) Name() string { return f.name }

// targetFor returns the storage target holding the stripe that contains
// offset off.
func (f *File) targetFor(off int64) int {
	return int((off / f.fs.cfg.StripeSize) % int64(f.fs.cfg.NumTargets))
}

// chunkify yields the extents of [off, off+size) split at stripe
// boundaries, in file order. It allocates nothing: a range over it
// inlines into the caller's loop.
func (f *File) chunkify(off, size int64) iter.Seq[extent] {
	ss := f.fs.cfg.StripeSize
	return func(yield func(extent) bool) {
		for off, end := off, off+size; off < end; {
			n := min(ss-off%ss, end-off)
			if !yield(extent{off, off + n}) {
				return
			}
			off += n
		}
	}
}

// ioDir is one direction of the chunk path: its name, probe span kind
// and call/byte counters.
type ioDir struct {
	read               bool
	verb               string
	kind               probe.Kind
	ctrCalls, ctrBytes string
}

var (
	writeDir = ioDir{false, "write", probe.KindFSWrite, probe.CtrFSWrites, probe.CtrFSWriteBytes}
	readDir  = ioDir{true, "read", probe.KindFSRead, probe.CtrFSReads, probe.CtrFSReadBytes}
)

// startIO performs one file-system call in either direction: split
// [off, off+size) into stripe chunks and move each between the client
// and its target. A chunk on a target hosted by clientNode queues at
// the target after ClientPerOp and skips the NIC; a remote chunk takes
// the direction's two legs (see chunk). Writes record buf into the file
// first; reads copy the file into buf. The returned future completes
// when every chunk is done.
func (f *File) startIO(dir *ioDir, clientNode int, off, size int64, buf []byte) *sim.Future {
	if size < 0 || off < 0 {
		panic(fmt.Sprintf("simfs: bad %s off=%d size=%d", dir.verb, off, size))
	}
	if buf != nil && int64(len(buf)) != size {
		panic("simfs: " + dir.verb + " buffer length does not match size")
	}
	fs := f.fs
	if dir.read {
		if buf != nil && off < int64(len(f.data)) {
			copy(buf, f.data[off:])
		}
	} else {
		f.record(off, size, buf)
	}
	k := fs.k
	ctr := fs.probe.Counters()
	ctr.Add(dir.ctrCalls, 1)
	ctr.Add(dir.ctrBytes, size)
	call := &ioCall{fs: fs, dir: dir, client: clientNode, off: off, size: size, t0: k.Now()}
	k.InitFuture(&call.out)
	if size == 0 {
		k.CompleteAfter(fs.cfg.ClientPerOp, &call.out)
	} else if fs.met != nil {
		call.lat = fs.met.Hist(metrics.ChunkLatency)
	}
	for ch := range f.chunkify(off, size) {
		tgt := f.targetFor(ch.off)
		n := ch.end - ch.off
		if fs.probe != nil {
			ctr.Add(fs.ostCtr[tgt][0], n) // the per-OST counters
			ctr.Add(fs.ostCtr[tgt][1], 1)
		}
		c := call.newChunk(tgt, n)
		switch {
		case fs.cfg.TargetNode != nil && fs.cfg.TargetNode(tgt) == clientNode:
			c.hops = 0
			fs.targets[tgt].SubmitFlowAfterOnArriveTo(&c.persisted, nil, fs.cfg.ClientPerOp, n, &c.arrive)
		case dir.read:
			fs.sampleOSTQueue(clientNode, tgt, n)
			fs.targets[tgt].SubmitFlowOnStartTo(&c.leg1, nil, n, nil)
		default:
			fs.net.TxServer(clientNode).SubmitFlowOnStartTo(&c.leg1, call, n, nil)
		}
	}
	if fs.probe != nil {
		call.emit = sim.NewEvent(call, (*ioCall).emitSpan)
		call.out.Then(&call.emit)
	}
	return &call.out
}

// ioCall is one file-system call in flight: its completion, the count
// of its chunks still pending, the begin/end span it reports (emit,
// with a probe) and the chunk-latency histogram (lat, with metrics). It
// is also the flow its chunks share on the client NIC, so they stream
// in order without starving concurrent transfers.
type ioCall struct {
	out     sim.Future
	pending int

	fs     *FS
	dir    *ioDir
	client int
	off    int64
	size   int64
	t0     sim.Time
	lat    *metrics.Hist
	emit   sim.Event[ioCall]
}

// emitSpan reports the call's span. Rank is the client *node* (the fs
// layer has no rank notion); V carries the file offset.
func (c *ioCall) emitSpan() {
	c.fs.probe.Emit(probe.Event{
		At: c.t0, Dur: c.fs.k.Now() - c.t0, Layer: probe.LayerFS, Kind: c.dir.kind,
		Rank: c.client, Peer: -1, Cycle: -1, Size: c.size, V: c.off,
	})
}

// chunk is one stripe chunk in flight, pooled. It is
// every action of its own event chain, each a sim.Event bound when the
// chunk's pool slab is made. leg1 ends the first leg (a write's NIC
// inject, a read's target service) and relays, one hop later, to the
// second: NetLatency away at the target (a write; arrive samples the
// OST queue) or on the client NIC (a read's return leg). persisted ends
// the chunk after hops zero-delay hops — one where a remote chunk's
// target future forwarded into its own — and schedules the latency
// record (with metrics) and join, the last event, which counts the call
// down and returns the chunk to its pool. A node-local chunk is one
// delayed submit at its target.
type chunk struct {
	call *ioCall
	tgt  int
	n    int64
	hops int

	leg1, relay, arrive, persisted, record, join sim.Event[chunk]

	next *chunk // pool link, nil while the chunk is live
}

// bindChunk binds a new chunk's actions, once, as its pool slab is made.
func bindChunk(c *chunk) {
	c.leg1 = sim.NewEvent(c, (*chunk).relayNext)
	c.relay = sim.NewEvent(c, (*chunk).startLeg2)
	c.arrive = sim.NewEvent(c, (*chunk).sample)
	c.persisted = sim.NewEvent(c, (*chunk).persist)
	c.record = sim.NewEvent(c, (*chunk).recordLatency)
	c.join = sim.NewEvent(c, (*chunk).done)
}

// newChunk takes a chunk for the call from the pool.
func (call *ioCall) newChunk(tgt int, n int64) *chunk {
	c := call.fs.chunks.Get()
	call.pending++
	c.call, c.tgt, c.n, c.hops = call, tgt, n, 1
	return c
}

func (c *chunk) relayNext() { c.call.fs.k.AfterAction(0, &c.relay) }

func (c *chunk) startLeg2() {
	call := c.call
	fs, lat := call.fs, call.fs.cfg.NetLatency
	switch {
	case call.dir.read:
		fs.net.TxServer(call.client).SubmitFlowAfterOnArriveTo(&c.persisted, call, lat, c.n, nil)
	default:
		fs.targets[c.tgt].SubmitFlowAfterOnArriveTo(&c.persisted, nil, lat, c.n, &c.arrive)
	}
}

func (c *chunk) sample() { c.call.fs.sampleOSTQueue(c.call.client, c.tgt, c.n) }

func (c *chunk) persist() {
	k := c.call.fs.k
	if c.hops > 0 {
		c.hops--
		k.AfterAction(0, &c.persisted)
		return
	}
	if c.call.lat != nil {
		k.AfterAction(0, &c.record)
	}
	k.AfterAction(0, &c.join)
}

// recordLatency records the client-observed submit-to-persist latency.
func (c *chunk) recordLatency() { c.call.lat.Record(int64(c.call.fs.k.Now() - c.call.t0)) }

func (c *chunk) done() {
	call := c.call
	c.call = nil
	call.fs.chunks.Put(c)
	if call.pending--; call.pending == 0 {
		call.out.Complete()
	}
}

// LiveChunks returns the number of stripe chunks taken from the pool
// and not yet returned: zero once every call has completed. Read it
// after the run, not from inside one.
func (fs *FS) LiveChunks() int { return fs.chunks.Live() }

// Write performs a synchronous write from process p running on
// clientNode. The process blocks until the data is persisted. The caller
// is responsible for MPI progress scope (the mpiio layer drops the rank
// out of the MPI library around this call).
func (f *File) Write(p *sim.Proc, clientNode int, off, size int64, data []byte) {
	p.Sleep(f.fs.cfg.ClientPerOp)
	p.Wait(f.startIO(&writeDir, clientNode, off, size, data))
}

// AIOWrite starts an asynchronous write and returns its completion
// future. The transfer progresses through simulation events alone, so
// the issuing process may do anything — including blocking elsewhere —
// while the write completes (aio_write semantics).
func (f *File) AIOWrite(clientNode int, off, size int64, data []byte) *sim.Future {
	return f.startIO(&writeDir, clientNode, off, size, data)
}

// record stores data and tracks written ranges.
func (f *File) record(off, size int64, data []byte) {
	if size == 0 {
		return
	}
	if data != nil {
		if grow := off + size - int64(len(f.data)); grow > 0 {
			f.data = append(f.data, make([]byte, grow)...)
		}
		copy(f.data[off:off+size], data)
	}
	f.written = addExtent(f.written, extent{off, off + size})
}

// addExtent adds e to ws, a list of extents sorted by offset with a gap
// between neighbours, and returns the list. Binary search finds the
// first extent e reaches (its end at or past e.off); e absorbs that one
// and every later one it overlaps or touches, or is inserted before it
// if it reaches none. A collective write's extents mostly arrive in
// ascending order, so the common case appends or extends the last.
func addExtent(ws []extent, e extent) []extent {
	i := sort.Search(len(ws), func(k int) bool { return ws[k].end >= e.off })
	j := i
	for j < len(ws) && ws[j].off <= e.end {
		j++
	}
	if i == j {
		ws = append(ws, extent{})
		copy(ws[i+1:], ws[i:])
		ws[i] = e
		return ws
	}
	e.off = min(e.off, ws[i].off)
	e.end = max(e.end, ws[j-1].end)
	ws[i] = e
	return append(ws[:i+1], ws[j:]...)
}

// Size returns the file size (highest written offset).
func (f *File) Size() int64 {
	if len(f.written) == 0 {
		return 0
	}
	return f.written[len(f.written)-1].end
}

// Contiguous reports whether the written ranges form a single extent
// starting at offset 0 — the post-condition of a dense collective write.
func (f *File) Contiguous() bool {
	return len(f.written) == 1 && f.written[0].off == 0
}

// Coverage returns the written ranges (sorted, merged) as (off,end)
// pairs.
func (f *File) Coverage() [][2]int64 {
	out := make([][2]int64, len(f.written))
	for i, e := range f.written {
		out[i] = [2]int64{e.off, e.end}
	}
	return out
}

// ReadBack returns a copy of file bytes [off, off+size) for
// verification (host-level, no simulation cost). Unwritten bytes read as
// zero.
func (f *File) ReadBack(off, size int64) []byte {
	out := make([]byte, size)
	if off < int64(len(f.data)) {
		copy(out, f.data[off:])
	}
	return out
}

// Read performs a synchronous read into buf (POSIX pread semantics: the
// process blocks, outside the MPI library).
func (f *File) Read(p *sim.Proc, clientNode int, off, size int64, buf []byte) {
	p.Sleep(f.fs.cfg.ClientPerOp)
	p.Wait(f.startIO(&readDir, clientNode, off, size, buf))
}

// AIORead starts an asynchronous read (aio_read semantics) and returns
// its completion future.
func (f *File) AIORead(clientNode int, off, size int64, buf []byte) *sim.Future {
	return f.startIO(&readDir, clientNode, off, size, buf)
}
