package analyzer

// A miniature worklist dataflow solver over the CFGs of cfg.go. It is
// deliberately tiny: facts are whatever map/struct an analyzer wants,
// the lattice is expressed through two callbacks (join, transfer), and
// may/must distinctions live entirely inside the analyzer's fact
// encoding (a bitmask of possible states per object, say, makes "must"
// a singleton and "on some path only" a two-bit mask).
//
// Protocol:
//
//   - transfer(b, in) returns the fact at the end of block b given the
//     fact at its start. It must treat `in` as read-only (copy before
//     mutating) — the solver hands the same stored value to every
//     invocation.
//   - join(dst, src) merges src into a copy of dst and reports whether
//     the result differs from dst. The solver re-queues a block only
//     when join reports change, so equality must be exact.
//
// Solving is iterative to fixpoint; with monotone transfer functions
// over finite lattices (every analyzer here uses small bitmask or
// constant lattices) termination is immediate. After solving, run a
// separate reporting pass over in-facts — transfer functions must not
// report diagnostics themselves, or fixpoint iteration would duplicate
// them.

// Facts holds the solved dataflow facts at the entry of each block.
type Facts[F any] map[*Block]F

// ForwardSolve computes, for every block, the fact holding at block
// entry. entry is the boundary fact at the function's entry block;
// bottom supplies the initial fact for all other blocks (typically an
// empty map: "nothing known / unreachable").
func ForwardSolve[F any](cfg *CFG, entry F, bottom func() F,
	join func(dst, src F) (F, bool),
	transfer func(b *Block, in F) F,
) Facts[F] {
	in := make(Facts[F], len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		in[b] = bottom()
	}
	if len(cfg.Blocks) > 0 {
		in[cfg.Blocks[0]] = entry
	}
	work := make([]*Block, 0, len(cfg.Blocks))
	queued := make([]bool, len(cfg.Blocks))
	push := func(b *Block) {
		if !queued[b.Index] {
			queued[b.Index] = true
			work = append(work, b)
		}
	}
	// Seed every block, not just the entry: blocks whose only incoming
	// fact equals bottom would otherwise never run their transfer and
	// never propagate (a pure gen-block feeding a bottom-fact successor
	// produces no "change" at the seed alone).
	for _, blk := range cfg.Blocks {
		push(blk)
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		out := transfer(b, in[b])
		for _, s := range b.Succs {
			merged, changed := join(in[s], out)
			if changed {
				in[s] = merged
				push(s)
			}
		}
	}
	return in
}
