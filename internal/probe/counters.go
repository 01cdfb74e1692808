package probe

import (
	"fmt"
	"sort"
	"strings"
)

// Canonical counter names. Layers use these so the report generator and
// tests can rely on stable keys; times are virtual nanoseconds, sizes
// bytes.
const (
	CtrNetMsgs       = "net.msgs"
	CtrNetInterBytes = "net.inter_bytes"
	CtrNetIntraBytes = "net.intra_bytes"

	CtrMPIEagerMsgs  = "mpi.eager_msgs"
	CtrMPIEagerBytes = "mpi.eager_bytes"
	CtrMPIRdvMsgs    = "mpi.rdv_msgs"
	CtrMPIRdvBytes   = "mpi.rdv_bytes"
	CtrMPIStallNS    = "mpi.stall_ns"
	CtrMPIStalls     = "mpi.stalls"
	CtrMPIFenceNS    = "mpi.fence_wait_ns"
	CtrMPIUnexpPeak  = "mpi.unexpected_peak"
	CtrMPIPutBytes   = "mpi.put_bytes"

	CtrFSWrites     = "fs.writes"
	CtrFSWriteBytes = "fs.write_bytes"
	CtrFSReads      = "fs.reads"
	CtrFSReadBytes  = "fs.read_bytes"

	CtrCollCycles     = "fcoll.cycles"
	CtrCollUserBytes  = "fcoll.user_bytes"
	CtrCollShufBytes  = "fcoll.shuffle_bytes"
	CtrCollWriteBytes = "fcoll.write_bytes"
)

// OSTCounter returns the per-target counter key for a storage target,
// e.g. OSTCounter(3, "bytes") == "fs.ost.3.bytes".
func OSTCounter(target int, what string) string {
	return fmt.Sprintf("fs.ost.%d.%s", target, what)
}

// Registry is a deterministic counters store: aggregate values plus an
// optional per-rank breakdown per key. All methods are safe on a nil
// receiver (no-op / zero), so call sites can chain through a nil probe.
// Snapshot ordering is sorted, never map order, so String() output is
// reproducible run to run.
type Registry struct {
	global  map[string]int64
	perRank map[string]map[int]int64
}

// Add increments the aggregate counter name by v.
func (g *Registry) Add(name string, v int64) {
	if g == nil {
		return
	}
	if g.global == nil {
		g.global = make(map[string]int64)
	}
	g.global[name] += v
}

// AddRank increments both the per-rank breakdown and the aggregate for
// name by v.
func (g *Registry) AddRank(rank int, name string, v int64) {
	if g == nil {
		return
	}
	g.Add(name, v)
	if g.perRank == nil {
		g.perRank = make(map[string]map[int]int64)
	}
	m := g.perRank[name]
	if m == nil {
		m = make(map[int]int64)
		g.perRank[name] = m
	}
	m[rank] += v
}

// SetMax raises the aggregate counter name to v if v is larger
// (high-water marks such as queue-depth peaks).
func (g *Registry) SetMax(name string, v int64) {
	if g == nil {
		return
	}
	if g.global == nil {
		g.global = make(map[string]int64)
	}
	if v > g.global[name] {
		g.global[name] = v
	}
}

// Get returns the aggregate value of name (0 when absent or nil).
func (g *Registry) Get(name string) int64 {
	if g == nil {
		return 0
	}
	return g.global[name]
}

// RankValue returns rank's share of name (0 when absent or nil).
func (g *Registry) RankValue(rank int, name string) int64 {
	if g == nil {
		return 0
	}
	return g.perRank[name][rank]
}

// Counter is one (name, value) pair of a snapshot.
type Counter struct {
	Name  string
	Value int64
}

// Snapshot returns all aggregate counters sorted by name.
func (g *Registry) Snapshot() []Counter {
	if g == nil {
		return nil
	}
	out := make([]Counter, 0, len(g.global))
	for name, v := range g.global {
		out = append(out, Counter{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RankNames returns the sorted counter names that have a per-rank
// breakdown.
func (g *Registry) RankNames() []string {
	if g == nil {
		return nil
	}
	out := make([]string, 0, len(g.perRank))
	for name := range g.perRank {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Ranks returns the sorted set of ranks that contributed to any
// per-rank counter.
func (g *Registry) Ranks() []int {
	if g == nil {
		return nil
	}
	seen := make(map[int]bool)
	var out []int
	for _, m := range g.perRank {
		for r := range m {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Ints(out)
	return out
}

// String renders the aggregate snapshot as "name value" lines in sorted
// order — deterministic for a deterministic run.
func (g *Registry) String() string {
	var b strings.Builder
	for _, c := range g.Snapshot() {
		fmt.Fprintf(&b, "%-28s %d\n", c.Name, c.Value)
	}
	return b.String()
}
