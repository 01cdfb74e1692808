package analyzer

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// WallClock enforces the determinism contract of the simulator core:
// inside the deterministic zone (the DES kernel and everything whose
// behaviour feeds the virtual clock) all time comes from the sim kernel
// and all randomness from an explicitly seeded source. Two hazard
// classes are flagged:
//
//  1. wall-clock calls (time.Now, time.Since, ...) — host time leaking
//     into simulated state makes runs irreproducible;
//  2. top-level math/rand functions (rand.Intn, rand.Float64, ...) —
//     they draw from the global, unseeded, process-wide source
//     (constructors like rand.New/rand.NewSource are the sanctioned
//     path and are exempt).
//
// Both are reported wherever the function is named, called or not.
//
// Map-iteration order, the third source of irreproducibility, is
// maporder's. Packages outside DeterministicZones may use all of the
// above freely (CLI tools print wall-clock progress, tests time
// themselves).
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock time and global math/rand in simulator packages",
	Run:  runWallClock,
}

// DeterministicZones lists the package-path fragments (segment-aligned)
// that make up the deterministic simulator core.
var DeterministicZones = []string{
	"internal/sim",
	"internal/simnet",
	"internal/simfs",
	"internal/mpi",
	"internal/mpiio",
	"internal/fcoll",
	"internal/probe",
	"internal/metrics",
}

// WallClockExempt lists sub-packages carved back out of the zone: the
// probe *exporters* run after the simulation has finished and may
// stamp reports with real wall-clock time, but the probe core they sit
// under records virtual-time events inside the simulators and stays in
// the zone. An exemption wins over a zone match.
var WallClockExempt = []string{
	"internal/probe/export",
	"internal/metrics/export",
}

// WallClockExemptFiles carves single files out of an otherwise
// deterministic package, keyed by zone fragment. The metrics samplers
// fold state at virtual-time instants and stay in the zone, but the
// live -progress heartbeat (progress.go) is the package's one
// sanctioned wall-clock consumer: it renders an elapsed/ETA line to
// stderr and never feeds anything back into simulated state.
var WallClockExemptFiles = map[string][]string{
	"internal/metrics": {"progress.go"},
}

// wallClockFileExempt reports whether this file of an in-zone package
// is individually exempt.
func wallClockFileExempt(pass *Pass, file *ast.File) bool {
	base := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
	for frag, names := range WallClockExemptFiles {
		if !pathHasSegments(pass.Pkg.Path(), frag) {
			continue
		}
		for _, n := range names {
			if n == base {
				return true
			}
		}
	}
	return false
}

// inDeterministicZone reports whether import path p lies in the zone.
func inDeterministicZone(p string) bool {
	for _, e := range WallClockExempt {
		if pathHasSegments(p, e) {
			return false
		}
	}
	for _, z := range DeterministicZones {
		if pathHasSegments(p, z) {
			return true
		}
	}
	return false
}

// pathHasSegments reports whether the slash-separated segment sequence
// frag occurs, segment-aligned, inside path ("a/internal/sim/b" matches
// "internal/sim"; "a/internal/simnet" does not).
func pathHasSegments(path, frag string) bool {
	return strings.Contains("/"+path+"/", "/"+frag+"/")
}

// wallClockFuncs are the package-level time functions that read or act
// on the host clock. (Parsing and formatting helpers like time.Parse or
// time.Duration arithmetic are deterministic and permitted.)
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandConstructors are the math/rand entry points that build an
// explicitly seeded source; everything else at package level draws from
// the global source.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

func runWallClock(pass *Pass) error {
	if !inDeterministicZone(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if wallClockFileExempt(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				checkWallClockRef(pass, id)
			}
			return true
		})
	}
	return nil
}

// checkWallClockRef reports id if it names a forbidden package-level
// function, called or not: rand.Float64 passed as a value (a noise
// hook) draws from the global source as surely as a call does.
func checkWallClockRef(pass *Pass, id *ast.Ident) {
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn on a seeded source) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(id.Pos(),
				"wall-clock call time.%s inside deterministic simulator package %s; all time must come from the sim kernel",
				fn.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if !seededRandConstructors[fn.Name()] {
			pass.Reportf(id.Pos(),
				"global math/rand source via rand.%s inside deterministic simulator package %s; use an explicitly seeded *rand.Rand (e.g. the kernel's)",
				fn.Name(), pass.Pkg.Path())
		}
	}
}
