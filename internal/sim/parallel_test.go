package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The tests below drive the same two-LP model through the sequential
// kernel and through a Partition, logging every observable action
// under its canonical event key, and require the folded parallel log
// to be bit-identical to the sequential one — the same property the
// exp-level equivalence matrix checks end-to-end, isolated to the
// executor.

const testLookahead = 100 * Nanosecond

// logEntry is one observable action tagged with its emission stamp.
type logEntry struct {
	at    Time
	stamp Stamp
	label string
}

type logShard struct{ entries []logEntry }

func (s *logShard) add(k *Kernel, label string) {
	s.entries = append(s.entries, logEntry{k.Now(), k.EventStamp(), label})
}

// foldLogs merges per-LP shards in emission-stamp order (valid only
// after the partitioned run has finished).
func foldLogs(shards []*logShard) []string {
	var all []logEntry
	for _, s := range shards {
		all = append(all, s.entries...)
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].stamp.Before(all[j].stamp)
	})
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = fmt.Sprintf("%d %s", e.at, e.label)
	}
	return out
}

// buildPingPong wires nlp logical processes that bounce messages
// between neighbours through ScheduleRemote with delay >= lookahead,
// each LP also running a local bandwidth server and a sleeping proc so
// the event actions (callbacks, process wakeups, server completions)
// interleave inside windows. kernelFor maps an LP to its kernel: in the
// sequential reference every LP maps to the same kernel.
func buildPingPong(kernelFor func(lp int) *Kernel, shards []*logShard, nlp, rounds int) {
	for lp := 0; lp < nlp; lp++ {
		lp := lp
		k := kernelFor(lp)
		sh := shards[lp]
		srv := newServer(k, 1e9, 10*Nanosecond)
		var bounce func(round int)
		bounce = func(round int) {
			sh.add(k, fmt.Sprintf("lp%d recv r%d", lp, round))
			submit(srv, int64(64*(round+1))).Then(Func(func() {
				sh.add(k, fmt.Sprintf("lp%d served r%d", lp, round))
			}))
			if round < rounds {
				dst := (lp + 1) % nlp
				k.ScheduleRemote(dst, k.Now()+testLookahead+Time(lp), func() {
					dk := kernelFor(dst)
					shards[dst].add(dk, fmt.Sprintf("lp%d ball from lp%d r%d", dst, lp, round+1))
					bounceOn(kernelFor, shards, dst, round+1, rounds)
				})
			}
		}
		k.At(Time(lp), func() { bounce(0) })
		k.Spawn(fmt.Sprintf("walker%d", lp), func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Sleep(testLookahead / 3)
				sh.add(k, fmt.Sprintf("lp%d walk %d", lp, i))
			}
		})
	}
}

// bounceOn continues a ball on dst's kernel: receive, serve locally,
// and pass it along while rounds remain.
func bounceOn(kernelFor func(lp int) *Kernel, shards []*logShard, lp, round, rounds int) {
	k := kernelFor(lp)
	srv := newServer(k, 2e9, 5*Nanosecond)
	submit(srv, 128).Then(Func(func() {
		shards[lp].add(k, fmt.Sprintf("lp%d hop-served r%d", lp, round))
	}))
	if round < rounds {
		dst := (lp + 1) % len(shards)
		k.ScheduleRemote(dst, k.Now()+testLookahead, func() {
			dk := kernelFor(dst)
			shards[dst].add(dk, fmt.Sprintf("lp%d ball from lp%d r%d", dst, lp, round+1))
			bounceOn(kernelFor, shards, dst, round+1, rounds)
		})
	}
}

func runSequentialPingPong(nlp, rounds int) []string {
	k := NewKernel(42)
	shards := make([]*logShard, nlp)
	for i := range shards {
		shards[i] = &logShard{}
	}
	// Sequential reference: one kernel plays every LP. ScheduleRemote
	// degrades to At, and the log keeps plain append order — the oracle
	// the folded parallel log must reproduce. (Stamps are not
	// maintained by Run, so the fold order here is just append order.)
	seqLog := &logShard{}
	all := func(int) *Kernel { return k }
	seqShards := make([]*logShard, nlp)
	for i := range seqShards {
		seqShards[i] = seqLog
	}
	buildPingPong(all, seqShards, nlp, rounds)
	k.Run()
	out := make([]string, len(seqLog.entries))
	for i, e := range seqLog.entries {
		out[i] = fmt.Sprintf("%d %s", e.at, e.label)
	}
	return out
}

func runPartitionedPingPong(nlp, rounds, workers int) []string {
	p := NewPartition(42, nlp, testLookahead)
	shards := make([]*logShard, nlp)
	for i := range shards {
		shards[i] = &logShard{}
	}
	buildPingPong(p.Kernel, shards, nlp, rounds)
	p.Run(workers)
	return foldLogs(shards)
}

func TestPartitionMatchesSequential(t *testing.T) {
	for _, nlp := range []int{2, 3, 5} {
		for _, workers := range []int{1, 2, 4} {
			want := runSequentialPingPong(nlp, 40)
			got := runPartitionedPingPong(nlp, 40, workers)
			if len(want) == 0 {
				t.Fatalf("empty sequential log")
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("nlp=%d workers=%d: log diverges at %d:\n  seq: %s\n  par: %s",
							nlp, workers, i, want[i], at(got, i))
					}
				}
				t.Fatalf("nlp=%d workers=%d: parallel log longer than sequential (%d vs %d)", nlp, workers, len(got), len(want))
			}
		}
	}
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(missing)"
}

func TestPartitionLookaheadViolationPanics(t *testing.T) {
	p := NewPartition(1, 2, testLookahead)
	k := p.Kernel(0)
	k.At(0, func() {
		// Scheduling on another LP below the window horizon must panic:
		// the destination may already be past this timestamp.
		k.ScheduleRemote(1, k.Now(), func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected lookahead-violation panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead violation") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.Run(1)
}

func TestPartitionDeadlockPanics(t *testing.T) {
	p := NewPartition(1, 2, testLookahead)
	p.Kernel(0).Spawn("stuck", func(pr *Proc) {
		pr.Wait(newFuture(pr.Kernel())) // never completed
	})
	p.Kernel(1).At(10, func() {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected deadlock panic")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.Run(2)
}

func TestPartitionStopDrains(t *testing.T) {
	p := NewPartition(1, 2, testLookahead)
	k0 := p.Kernel(0)
	k0.At(0, func() {
		k0.ScheduleRemote(1, testLookahead*2, func() { t := 0; _ = t })
		p.Stop()
	})
	p.Kernel(1).At(testLookahead*5, func() {})
	p.Run(2)
	for i := 0; i < p.NKernels(); i++ {
		if n := p.Kernel(i).Pending(); n != 0 {
			t.Fatalf("LP %d still has %d pending events after Stop", i, n)
		}
	}
}

// BenchmarkPartitionPingPong measures raw window-protocol overhead:
// many small windows with one cross-LP hop each — the worst case for
// barrier cost relative to useful work.
func BenchmarkPartitionPingPong(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runPartitionedPingPong(4, 200, workers)
			}
		})
	}
}
