// Near-miss fixture for the wallclock analyzer: this package is NOT on
// a deterministic-zone path, so wall-clock and global rand use is fine
// (CLI tools time themselves and shuffle with the global source).
package tools

import (
	"math/rand"
	"time"
)

func Elapsed(start time.Time) time.Duration {
	return time.Since(start)
}

func Stamp() time.Time {
	return time.Now()
}

func Jitter() int {
	return rand.Intn(100)
}
