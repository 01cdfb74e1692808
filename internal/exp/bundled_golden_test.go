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
// executor, so it is cheap enough for -short.
var bundledGoldens = []bundledGolden{
	{"crill/ior/no-overlap", 1426543098, 438773498, 1345620840, 1610612736, "bb0ffaa7d95c5426e36c5038099eec93d621f24d2cb98739ee22e38af9eda14e"},
	{"crill/ior/comm-overlap", 1416383175, 719831975, 1412473010, 1610612736, "4f319655075e40afb19f08054ca5f2b945d65bf13821125b21b82c770bc8fe13"},
	{"crill/ior/write-overlap", 1284354291, 841379144, 1203259737, 1610612736, "c72580375f36851648ea02d25516c7ba4392634453e0214460e5f31b5526d0d7"},
	{"crill/ior/write-comm-overlap", 1282337801, 948630694, 1201243247, 1610612736, "47027a11b65ef7cc8cccbeff90aa66975d7e9753312f5413b5acddb9d980371f"},
	{"crill/ior/write-comm-2-overlap", 1284354291, 841379144, 1203259737, 1610612736, "c72580375f36851648ea02d25516c7ba4392634453e0214460e5f31b5526d0d7"},
	{"crill/tileio/no-overlap", 1560769031, 572991218, 1345620840, 1610612736, "fd5a2bf67284b86feaeb42607a1942859f55d8506d3f373cab7f1868a3c032a5"},
	{"crill/tileio/comm-overlap", 1482102135, 786940823, 1411074909, 1610612736, "82cbf5b6d5797555e15a05fcdf182cca573f0a3a38dbfd96c9d25647d9270da1"},
	{"crill/tileio/write-overlap", 1285142216, 864125212, 1136930601, 1610612736, "65a19fd727a4635ebc60596e7f4d26d9a9f665ede3023d2a746b57d356911383"},
	{"crill/tileio/write-comm-overlap", 1285142216, 1015739542, 1136930601, 1610612736, "dbb8d0005ff0101ca8968d5006aaddef2b7d593683f99800dd1cc39dba8143f0"},
	{"crill/tileio/write-comm-2-overlap", 1285142216, 864125212, 1136930601, 1610612736, "65a19fd727a4635ebc60596e7f4d26d9a9f665ede3023d2a746b57d356911383"},
	{"crill/flashio/no-overlap", 28876814, 657860, 27780294, 12582912, "f723fa939ff0f8ceff306d5fd8595621287debe904fdc173896485aa76163bed"},
	{"crill/flashio/comm-overlap", 28876814, 657860, 27780294, 12582912, "f723fa939ff0f8ceff306d5fd8595621287debe904fdc173896485aa76163bed"},
	{"crill/flashio/write-overlap", 28836814, 657860, 27740294, 12582912, "45d789d2a76f0d39a578854625abc531dad984cf0a6ec7b6d1c7237ebf12cdbe"},
	{"crill/flashio/write-comm-overlap", 28836814, 657860, 27740294, 12582912, "45d789d2a76f0d39a578854625abc531dad984cf0a6ec7b6d1c7237ebf12cdbe"},
	{"crill/flashio/write-comm-2-overlap", 28836814, 657860, 27740294, 12582912, "45d789d2a76f0d39a578854625abc531dad984cf0a6ec7b6d1c7237ebf12cdbe"},
	{"ibex/ior/no-overlap", 221110213, 82582311, 183520080, 1342177280, "4553ec272749402e379a83e78af04b768103c99f865d22cec673beb04b63c7a9"},
	{"ibex/ior/comm-overlap", 230507524, 92457657, 228218256, 1342177280, "04057decc71eecc0f2e8707dac7c7d555247d0539edda5df3b6671c9542cfa66"},
	{"ibex/ior/write-overlap", 144501147, 125467464, 106787614, 1342177280, "195ba145ad817c85fe6d1f3b017d25aad62f2aade6cb437011636715a0129139"},
	{"ibex/ior/write-comm-overlap", 142033915, 125467464, 104320382, 1342177280, "e6b64b3b1eb35a26ecff4487cecc6baeb3d19259b2e8c48f767a690373fc2a1c"},
	{"ibex/ior/write-comm-2-overlap", 144501147, 125467464, 106787614, 1342177280, "195ba145ad817c85fe6d1f3b017d25aad62f2aade6cb437011636715a0129139"},
	{"ibex/tileio/no-overlap", 274243300, 135710151, 183520080, 1342177280, "487c34aa5c5d679168f6bbd8d4bec2ee37814299fc6de18e66ac4e48251d8e5b"},
	{"ibex/tileio/comm-overlap", 272402696, 134400697, 228165141, 1342177280, "515c1b7f884571941653366960a72476636a9f7dd9bf5fdf0f5cd65e05830756"},
	{"ibex/tileio/write-overlap", 163627490, 148536136, 83965670, 1342177280, "4dc0e1571d1dbbcb91cb5feb91ee36b2a07e8a67a90bb73bb9967fa37a95b724"},
	{"ibex/tileio/write-comm-overlap", 163010682, 148536136, 83348862, 1342177280, "252f057b17692c78fee578e5de839bbc47f192ce2e90096f83938fee4e885015"},
	{"ibex/tileio/write-comm-2-overlap", 163627490, 148536136, 83965670, 1342177280, "4dc0e1571d1dbbcb91cb5feb91ee36b2a07e8a67a90bb73bb9967fa37a95b724"},
	{"ibex/flashio/no-overlap", 4865412, 315950, 4181396, 10485760, "b4da05cfe63bf8833042548a294af0bb82ac6959039755dbfac32ac5854f7192"},
	{"ibex/flashio/comm-overlap", 4865412, 315950, 4181396, 10485760, "b4da05cfe63bf8833042548a294af0bb82ac6959039755dbfac32ac5854f7192"},
	{"ibex/flashio/write-overlap", 4825412, 315950, 4141396, 10485760, "275d2d4dd3d78025365536d9cff8031d84e83e478cc4dc6e5109839d9af5faa2"},
	{"ibex/flashio/write-comm-overlap", 4825412, 315950, 4141396, 10485760, "275d2d4dd3d78025365536d9cff8031d84e83e478cc4dc6e5109839d9af5faa2"},
	{"ibex/flashio/write-comm-2-overlap", 4825412, 315950, 4141396, 10485760, "275d2d4dd3d78025365536d9cff8031d84e83e478cc4dc6e5109839d9af5faa2"},
	{"crill-flow/flashio/write-comm-2-overlap", 28546207, 595320, 27524850, 14155776, "4e084e05afc7ba8fcde774996d85cbf05a0b43e02b855d5559e5ed78a1d2632d"},
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
