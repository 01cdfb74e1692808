package exp

import (
	"fmt"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/sim"
	"collio/internal/simnet"
	"collio/internal/trace"
	"collio/internal/workload/flashio"
)

// bundledGolden pins one bundled-executor cell bit for bit: the reported
// metrics of an uninstrumented run and the trace digest of a traced one.
type bundledGolden struct {
	name                        string
	elapsed, shuffle, writeTime sim.Time
	bytes                       int64
	digest                      string
}

// bundledGoldens is the frozen output of the bundled cohort executor over
// bundledGoldenCells. Unlike TestBundledMatchesExactTolerance (a 12%
// band against the exact executor), this table catches any change in the
// bundled control flow, however small. It only runs the bundled
// executor, so it is cheap enough for -short. Re-pinned with the Bruck
// setup allgatherv's closed form: every Elapsed fell by 0.113 to
// 0.312 ms, and no ShuffleTime, WriteTime or byte count moved.
var bundledGoldens = []bundledGolden{
	{"crill/ior/no-overlap", 1426405553, 438773498, 1345620840, 1610612736, "fd537824fe29e58cdb1fce602f6b5644368a583f728f264135f62976849d16f0"},
	{"crill/ior/comm-overlap", 1416245630, 719831975, 1412473010, 1610612736, "d4e71e1881d7559cb4eeb0c3d04db593e3a969943c4c0a5e8d314d494450f381"},
	{"crill/ior/write-overlap", 1284216746, 841379144, 1203259737, 1610612736, "88d35541847e76b5a022b1aa0f451d093d62afde1f75ee700c4842f5506138b6"},
	{"crill/ior/write-comm-overlap", 1282200256, 948630694, 1201243247, 1610612736, "5f4dbb564d50e58da4acd112d3d1b02de0009a52540976a01682f38912103b0f"},
	{"crill/ior/write-comm-2-overlap", 1284216746, 841379144, 1203259737, 1610612736, "88d35541847e76b5a022b1aa0f451d093d62afde1f75ee700c4842f5506138b6"},
	{"crill/tileio/no-overlap", 1560630198, 572991218, 1345620840, 1610612736, "46eb16497fbe30dc36683b550726b1693135f29869c7f60e66b0a4a8a47bdd8e"},
	{"crill/tileio/comm-overlap", 1481963302, 786940823, 1411074909, 1610612736, "76d03af7a6a93800f2434dfc9d1917927bcbf9505f1660d829bcb66ae4b35e78"},
	{"crill/tileio/write-overlap", 1285003383, 864125212, 1136930601, 1610612736, "2d8a0fec103595e3b5abba4a504a0e82c5a42a33a561c870ed7ebe3f1c027ae8"},
	{"crill/tileio/write-comm-overlap", 1285003383, 1015739542, 1136930601, 1610612736, "674114b03fc9351e17618d775e2bb058e1aae872eaff4e3582dae872ad4df2e1"},
	{"crill/tileio/write-comm-2-overlap", 1285003383, 864125212, 1136930601, 1610612736, "2d8a0fec103595e3b5abba4a504a0e82c5a42a33a561c870ed7ebe3f1c027ae8"},
	{"crill/flashio/no-overlap", 28601724, 657860, 27780294, 12582912, "0b36fc8303e43d2be37904cd391a388a3446f5b4cfa33bb89bb20c95c53bf4e0"},
	{"crill/flashio/comm-overlap", 28601724, 657860, 27780294, 12582912, "0b36fc8303e43d2be37904cd391a388a3446f5b4cfa33bb89bb20c95c53bf4e0"},
	{"crill/flashio/write-overlap", 28561724, 657860, 27740294, 12582912, "07f8820ff7475a647d383f59b33a410a643c2b2f99e0ddff0bbf8b85b9ac2d81"},
	{"crill/flashio/write-comm-overlap", 28561724, 657860, 27740294, 12582912, "07f8820ff7475a647d383f59b33a410a643c2b2f99e0ddff0bbf8b85b9ac2d81"},
	{"crill/flashio/write-comm-2-overlap", 28561724, 657860, 27740294, 12582912, "07f8820ff7475a647d383f59b33a410a643c2b2f99e0ddff0bbf8b85b9ac2d81"},
	{"ibex/ior/no-overlap", 220997404, 82582311, 183520080, 1342177280, "ed527c1516b137ee298453e931f5d4d10111ccf1d490a815e9acbf890b8ed39e"},
	{"ibex/ior/comm-overlap", 230394715, 92457657, 228218256, 1342177280, "943bffb64edc0e5e20bec825c5f30b407c783b5b160e2718422828df24787f59"},
	{"ibex/ior/write-overlap", 144388338, 125467464, 106787614, 1342177280, "af18de4472f6df612cd984e46cdbcc2bc3a0aff91640d3210846a7ee5b2d893e"},
	{"ibex/ior/write-comm-overlap", 141921106, 125467464, 104320382, 1342177280, "73c3d5aad1603de0f3314cfce2570e5017e58f80fda7993ae9e39c3ae91a804f"},
	{"ibex/ior/write-comm-2-overlap", 144388338, 125467464, 106787614, 1342177280, "af18de4472f6df612cd984e46cdbcc2bc3a0aff91640d3210846a7ee5b2d893e"},
	{"ibex/tileio/no-overlap", 274129190, 135710151, 183520080, 1342177280, "2e8b297bc5c2b9f24d8110c4cdf9a0932af68f9a237bd78e18321627714794c6"},
	{"ibex/tileio/comm-overlap", 272288586, 134400697, 228165141, 1342177280, "ff5b112cff4d11539695ac20435f71df3052413525ee610fe98f2638b34db439"},
	{"ibex/tileio/write-overlap", 163513380, 148536136, 83965670, 1342177280, "207442d75d082ec5d3905b9547bbcb812c8c7f189e516b1c1163ff5fadb4efb1"},
	{"ibex/tileio/write-comm-overlap", 162896572, 148536136, 83348862, 1342177280, "37dff4de288523b7c80755156475c40dab9de5dff8fdc88653bc1e1289c65e4a"},
	{"ibex/tileio/write-comm-2-overlap", 163513380, 148536136, 83965670, 1342177280, "207442d75d082ec5d3905b9547bbcb812c8c7f189e516b1c1163ff5fadb4efb1"},
	{"ibex/flashio/no-overlap", 4639794, 315950, 4181396, 10485760, "34b232d0000557d9009140349ea4184cdd4af9ee7c74ce141f5065c51cb202bb"},
	{"ibex/flashio/comm-overlap", 4639794, 315950, 4181396, 10485760, "34b232d0000557d9009140349ea4184cdd4af9ee7c74ce141f5065c51cb202bb"},
	{"ibex/flashio/write-overlap", 4599794, 315950, 4141396, 10485760, "7d708de4bf39543de72437e160383ad6f811d62fe7b899056a80f30dfa9cfaf1"},
	{"ibex/flashio/write-comm-overlap", 4599794, 315950, 4141396, 10485760, "7d708de4bf39543de72437e160383ad6f811d62fe7b899056a80f30dfa9cfaf1"},
	{"ibex/flashio/write-comm-2-overlap", 4599794, 315950, 4141396, 10485760, "7d708de4bf39543de72437e160383ad6f811d62fe7b899056a80f30dfa9cfaf1"},
	{"crill-flow/flashio/write-comm-2-overlap", 28233973, 595320, 27524850, 14155776, "3595231f49239461f1034b93f5bfe7e55a60ed09b65f4b84f832803c5298bdd5"},
}

// bundledGoldenCells is the DESIGN.md §14 matrix plus one fluid-model
// cell: under -netmodel flow a traced run replays per-member shuffle
// completions through SendFlowMilestones.
func bundledGoldenCells() []bundledCell {
	cells := bundledMatrix()
	pf := platform.Crill().Deterministic()
	pf.NetModel = simnet.ModelFlow
	// A half-filled fifth node shifts the aggregator domains off node
	// boundaries, so batches of several members cross nodes.
	cells = append(cells, bundledCell{"crill-flow/flashio/write-comm-2-overlap", Spec{
		Platform:  pf,
		NProcs:    4*pf.RanksPerNode + pf.RanksPerNode/2,
		Gen:       flashio.Config{NXB: 8, NYB: 8, NZB: 8, BytesPerCell: 8, BlocksPerProc: 8, NumVars: 2},
		Algorithm: fcoll.WriteComm2Overlap,
		Seed:      1,
	}})
	return cells
}

// TestBundledGolden replays bundledGoldenCells on the bundled executor
// and requires every metric and trace digest to match the table.
func TestBundledGolden(t *testing.T) {
	cells := bundledGoldenCells()
	if len(cells) != len(bundledGoldens) {
		t.Errorf("matrix has %d cells, golden table %d", len(cells), len(bundledGoldens))
	}
	for i, cell := range cells {
		spec := cell.spec
		spec.Bundle = true
		m, err := Execute(spec)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		rec := trace.New()
		spec.Trace = rec
		traced, err := Execute(spec)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		if traced != m {
			t.Errorf("%s: tracing moved the metrics:\n  off: %+v\n  on:  %+v", cell.name, m, traced)
		}
		got := bundledGolden{cell.name, m.Elapsed, m.ShuffleTime, m.WriteTime, m.BytesWritten, rec.Digest()}
		if i >= len(bundledGoldens) || bundledGoldens[i] != got {
			t.Errorf("bundled output diverged from the golden table; got\n\t%s",
				fmt.Sprintf("{%q, %d, %d, %d, %d, %q},", got.name, got.elapsed, got.shuffle, got.writeTime, got.bytes, got.digest))
		}
	}
}
