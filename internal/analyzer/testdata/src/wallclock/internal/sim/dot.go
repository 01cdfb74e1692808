package sim

// A dot import hides the package qualifier, not the global source.

import . "math/rand"

func badDotImportedRand() int {
	return Intn(10) // want `global math/rand source via rand.Intn`
}
