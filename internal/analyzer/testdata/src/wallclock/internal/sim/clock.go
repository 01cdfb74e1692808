// Fixtures for the wallclock analyzer, placed on a deterministic-zone
// import path (…/internal/sim): wall-clock reads and global math/rand
// are forbidden here.
package sim

import (
	"math/rand"
	"time"
)

func badNow() time.Time {
	return time.Now() // want `wall-clock call time.Now`
}

func badSince(t0 time.Time) time.Duration {
	return time.Since(t0) // want `wall-clock call time.Since`
}

func badGlobalRand() int {
	return rand.Intn(10) // want `global math/rand source via rand.Intn`
}

// badRandValue hands the global source to a noise hook as a function
// value: no call in sight, the same nondeterminism.
func badRandValue(noise func(func() float64) float64) float64 {
	return noise(rand.Float64) // want `global math/rand source via rand.Float64`
}

// --- near misses: deterministic by construction, must stay silent ---

func goodSeededMethodValue(seed int64, noise func(func() float64) float64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return noise(rng.Float64) // a method value on a seeded source
}

func goodSeededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // constructor + method calls on a seeded source
	return rng.Intn(10)
}

func goodDurationMath(d time.Duration) string {
	return (d * 2).String() // deterministic time API
}
