// Fixture for the kernelshare analyzer: kernel-owned state (*sim.Kernel,
// *sim.Proc, *rand.Rand) crossing goroutine boundaries outside the sim
// package.
package kernelshare

import (
	"math/rand"

	"sim"
)

func worker(k *sim.Kernel) { _ = k }

func procWorker(p *sim.Proc) { _ = p }

func rngWorker(r *rand.Rand) { _ = r }

// goArg passes kernel-owned values as goroutine call arguments.
func goArg(k *sim.Kernel, p *sim.Proc) {
	go worker(k)           // want `\*sim\.Kernel passed to a goroutine`
	go procWorker(p)       // want `\*sim\.Proc passed to a goroutine`
	go rngWorker(k.Rand()) // want `\*rand\.Rand passed to a goroutine`
}

// goReceiver starts a method of a kernel-owned value as a goroutine.
func goReceiver(p *sim.Proc) {
	go p.Yield() // want `\*sim\.Proc is the receiver of a method started as a goroutine`
}

// goCapture captures kernel-owned state inside a spawned literal.
func goCapture(k *sim.Kernel, rng *rand.Rand) {
	go func() {
		k.After(1, func() {}) // want `\*sim\.Kernel captured by a function literal started as a goroutine`
		_ = rng.Int63()       // want `\*rand\.Rand captured by a function literal started as a goroutine`
	}()
}

// channelSend hands a kernel-owned value to another goroutine via a
// channel.
func channelSend(k *sim.Kernel, ch chan *sim.Kernel) {
	ch <- k // want `\*sim\.Kernel sent on a channel`
}

// cleanParallelism is the sanctioned pattern: each goroutine builds its
// own kernel and nothing kernel-owned crosses.
func cleanParallelism(seeds []int64, results chan sim.Time) {
	for range seeds {
		go func() {
			k := &sim.Kernel{} // fresh kernel, goroutine-local: ok
			k.Spawn("p", 0, func(p *sim.Proc) {
				p.Sleep(10) // p is local to the literal: ok
			})
			results <- 0 // sim.Time is a value, not kernel-owned: ok
		}()
	}
}
