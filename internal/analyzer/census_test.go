package analyzer

import (
	"go/types"
	"sort"
	"testing"
)

// nonBlockingRankMethods are the exported *mpi.Rank methods that never
// park the calling process: accessors, plus the progress-scope markers
// that only drain already-arrived packets.
var nonBlockingRankMethods = map[string]bool{
	"ID": true, "Node": true, "Size": true, "World": true, "Kernel": true,
	"LP": true, "Proc": true, "Now": true,
	"EnterMPI": true, "ExitMPI": true, "InMPI": true,
}

// TestRankMethodCensus loads the real collio/internal/mpi package and
// holds every exported *mpi.Rank method to one of the two lists, so a
// new collective cannot slip past blockingoutsiderank unclassified. It
// also rejects list entries that name no Rank method.
func TestRankMethodCensus(t *testing.T) {
	pkgs, err := Load("", []string{"collio/internal/mpi"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	rank, ok := pkgs[0].Types.Scope().Lookup("Rank").(*types.TypeName)
	if !ok {
		t.Fatal("collio/internal/mpi has no Rank type")
	}
	mset := types.NewMethodSet(types.NewPointer(rank.Type()))
	have := map[string]bool{}
	for i := 0; i < mset.Len(); i++ {
		fn := mset.At(i).Obj()
		if !fn.Exported() {
			continue
		}
		have[fn.Name()] = true
		blocking, nonBlocking := blockingMPIMethods[fn.Name()], nonBlockingRankMethods[fn.Name()]
		switch {
		case blocking && nonBlocking:
			t.Errorf("Rank.%s is listed as both blocking and non-blocking", fn.Name())
		case !blocking && !nonBlocking:
			t.Errorf("Rank.%s is unclassified: add it to blockingMPIMethods if it can park the process, else to nonBlockingRankMethods", fn.Name())
		}
	}
	for _, list := range []map[string]bool{blockingMPIMethods, nonBlockingRankMethods} {
		var stale []string
		for name := range list {
			if !have[name] {
				stale = append(stale, name)
			}
		}
		sort.Strings(stale)
		for _, name := range stale {
			t.Errorf("%s is listed but *mpi.Rank has no such method", name)
		}
	}
}
