package simnet

import (
	"fmt"
	"reflect"
	"testing"

	"collio/internal/probe"
	"collio/internal/sim"
)

// sendOp is one send of the equivalence pattern, issued at instant at
// in the source node's context.
type sendOp struct {
	at       sim.Time
	from, to int
	size     int64
}

// equivPattern mixes intra-node and inter-node sends with tx and rx
// contention (several senders into node 0, bursts out of node 1) and
// same-instant ties, so free-list reuse and port queueing both matter.
func equivPattern() []sendOp {
	var ops []sendOp
	for round := 0; round < 4; round++ {
		at := sim.Time(round) * 700
		for from := 0; from < 4; from++ {
			ops = append(ops,
				sendOp{at, from, 0, int64(300 + 100*from)},
				sendOp{at, from, from, int64(200 * (round + 1))},
				sendOp{at + 50, from, (from + 1) % 4, 1000},
			)
		}
		ops = append(ops, sendOp{at + 50, 1, 3, 64}, sendOp{at + 50, 1, 2, 2500})
	}
	return ops
}

// sendResult is what one run of the pattern observed: every transfer's
// injection and delivery instants, the network counters and the
// probe's event stream in emission order.
type sendResult struct {
	injected, delivered []sim.Time
	counters            []probe.Counter
	events              []probe.Event
}

// runPattern issues equivPattern on net, each send scheduled on its
// source node's kernel. The transfers' completions are forwarded into
// futures the test keeps; the transfers themselves return to the per-LP
// pools at delivery, so the pools turn over.
func runPattern(net *Network, run func()) sendResult {
	ops := equivPattern()
	inj := make([]*sim.Future, len(ops))
	del := make([]*sim.Future, len(ops))
	for i, op := range ops {
		i, op := i, op
		net.KernelFor(op.from).At(op.at, func() {
			kept := keep(net, net.Send(op.from, op.to, op.size))
			inj[i], del[i] = kept.Injected, kept.Delivered
		})
	}
	run()
	if live := net.LiveTransfers(); live != 0 {
		panic(fmt.Sprintf("%d transfers live after the run", live))
	}
	var res sendResult
	for i := range ops {
		res.injected = append(res.injected, inj[i].DoneAt())
		res.delivered = append(res.delivered, del[i].DoneAt())
	}
	return res
}

func sequentialPattern() sendResult {
	k := sim.NewKernel(1)
	net := New(k, testConfig())
	p := probe.New()
	net.SetSinks(0, p, nil)
	res := runPattern(net, func() { k.Run() })
	res.counters = p.Counters().Snapshot()
	res.events = p.Events()
	return res
}

func partitionedPattern(workers int) sendResult {
	cfg := testConfig()
	part := sim.NewPartition(1, cfg.Nodes, cfg.InterLatency)
	net := NewPartitioned(part, cfg)
	shards := make([]*probe.Probe, cfg.Nodes)
	for lp := range shards {
		shards[lp] = probe.New()
		shards[lp].KeyFn = part.Kernel(lp).EventStamp
		net.SetSinks(lp, shards[lp], nil)
	}
	res := runPattern(net, func() { part.Run(workers) })
	merged := probe.New()
	probe.MergeShards(merged, shards)
	res.counters = merged.Counters().Snapshot()
	res.events = merged.Events()
	return res
}

// TestPartitionedMatchesSequential sends the same intra- and
// inter-node pattern through a sequential network (every node one LP)
// and a partitioned one (node i on LP i) and requires identical
// injection and delivery instants, CtrNet* counters and folded probe
// events, at one and several window workers.
func TestPartitionedMatchesSequential(t *testing.T) {
	seq := sequentialPattern()
	if got := len(seq.delivered); got != len(equivPattern()) {
		t.Fatalf("%d deliveries, want %d", got, len(equivPattern()))
	}
	var inter, intra int64
	for _, op := range equivPattern() {
		if op.from == op.to {
			intra += op.size
		} else {
			inter += op.size
		}
	}
	want := map[string]int64{
		probe.CtrNetMsgs:       int64(len(equivPattern())),
		probe.CtrNetInterBytes: inter,
		probe.CtrNetIntraBytes: intra,
	}
	got := map[string]int64{}
	for _, c := range seq.counters {
		got[c.Name] = c.Value
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("sequential %s = %d, want %d", name, got[name], w)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			par := partitionedPattern(workers)
			if !reflect.DeepEqual(par.injected, seq.injected) {
				t.Errorf("injection instants differ:\n par %v\n seq %v", par.injected, seq.injected)
			}
			if !reflect.DeepEqual(par.delivered, seq.delivered) {
				t.Errorf("delivery instants differ:\n par %v\n seq %v", par.delivered, seq.delivered)
			}
			if !reflect.DeepEqual(par.counters, seq.counters) {
				t.Errorf("counters differ:\n par %v\n seq %v", par.counters, seq.counters)
			}
			if !reflect.DeepEqual(par.events, seq.events) {
				t.Errorf("probe events differ: par %d, seq %d", len(par.events), len(seq.events))
			}
		})
	}
}
