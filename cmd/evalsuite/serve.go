package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"collio/internal/platform"
	"collio/internal/tune"
	"collio/internal/workload"
	"collio/internal/workload/flashio"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// runServe is the -serve query loop: a long-running tuner over one
// shared memo cache answering line-oriented queries from in. A cold
// query schedules a design-space sweep; a warm one answers in
// O(lookup) without simulating. Commands:
//
//	select <platform> <workload> <np>   auto-tune one question
//	stats                               print cache counters
//	quit                                flush and exit
//
// Requests are served synchronously, so a signal on sig (SIGINT from
// main) drains the in-flight sweep before the loop flushes the
// on-disk cache and returns — a kill mid-sweep never truncates a
// store record (Store appends whole lines and OpenStore drops a
// torn trailing line, but the clean path never relies on that).
func runServe(in io.Reader, out io.Writer, sig <-chan os.Signal, opts tune.Options) error {
	t, err := tune.New(opts)
	if err != nil {
		return err
	}
	defer t.Close()
	fmt.Fprintf(out, "serve: ready (%d-point space%s)\n", opts.Space.Size(), serveCacheNote(opts))

	lines := make(chan string)
	scanErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(in)
		for sc.Scan() {
			lines <- sc.Text()
		}
		scanErr <- sc.Err()
		close(lines)
	}()

	finish := func(why string) error {
		ferr := t.Flush()
		s := t.Cache().Stats()
		fmt.Fprintf(out, "serve: %s; cache flushed (%d entries, %d hits, %d simulations)\n",
			why, s.Entries, s.Hits, s.Simulations)
		return ferr
	}
	for {
		select {
		case <-sig:
			// Any sweep that was running when the signal arrived has
			// already completed (requests are synchronous); only the
			// flush remains.
			return finish("interrupted")
		case line, ok := <-lines:
			if !ok {
				if err := finish("input closed"); err != nil {
					return err
				}
				return <-scanErr
			}
			if quit := serveRequest(out, t, line); quit {
				return finish("quit")
			}
		}
	}
}

// serveCacheNote describes the persistence mode for the banner.
func serveCacheNote(opts tune.Options) string {
	if opts.CachePath == "" {
		return ", in-memory cache"
	}
	return ", cache file " + opts.CachePath
}

// serveCmd is one parsed request line: op is "" for a blank line,
// "quit", "stats" or "select", and a select carries its question.
type serveCmd struct {
	op  string
	pf  platform.Platform
	gen workload.Generator
	np  int
}

// parseServeRequest parses one input line into a command, or returns
// the error serveRequest reports for it. It reads nothing but line.
func parseServeRequest(line string) (serveCmd, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return serveCmd{}, nil
	}
	switch fields[0] {
	case "quit", "stats":
		return serveCmd{op: fields[0]}, nil
	case "select":
		if len(fields) != 4 {
			return serveCmd{}, fmt.Errorf("usage: select <crill|ibex> <workload> <np>")
		}
		pf, ok := servePlatform(fields[1])
		if !ok {
			return serveCmd{}, fmt.Errorf("unknown platform %q (want crill|ibex)", fields[1])
		}
		gen, ok := serveWorkload(fields[2])
		if !ok {
			return serveCmd{}, fmt.Errorf("unknown workload %q (want %s)", fields[2], strings.Join(serveWorkloadNames, "|"))
		}
		np, err := strconv.Atoi(fields[3])
		if err != nil || np <= 0 {
			return serveCmd{}, fmt.Errorf("bad rank count %q", fields[3])
		}
		return serveCmd{op: "select", pf: pf, gen: gen, np: np}, nil
	}
	return serveCmd{}, fmt.Errorf("unknown command %q (want select|stats|quit)", fields[0])
}

// serveRequest handles one input line, reporting errors to out rather
// than failing the loop. It returns true for the quit command.
func serveRequest(out io.Writer, t *tune.Tuner, line string) (quit bool) {
	cmd, err := parseServeRequest(line)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return false
	}
	switch cmd.op {
	case "quit":
		return true
	case "stats":
		s := t.Cache().Stats()
		fmt.Fprintf(out, "stats: entries=%d hits=%d misses=%d simulations=%d coalesced=%d\n",
			s.Entries, s.Hits, s.Misses, s.Simulations, s.Coalesced)
	case "select":
		before := t.Cache().Stats().Simulations
		sel, err := t.Select(cmd.gen, cmd.pf, cmd.np)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return false
		}
		simulated := t.Cache().Stats().Simulations - before
		temp := "cold"
		if simulated == 0 {
			temp = "warm"
		}
		b := sel.Best
		fmt.Fprintf(out, "best: %s/%s cb=%dMiB agg=%d elapsed=%v [%s: %d/%d cached, %d simulated]\n",
			b.Config.Algorithm, b.Config.Primitive, b.Config.BufferSize>>20,
			b.Config.Aggregators, b.Result.Elapsed,
			temp, sel.Hits, sel.Evaluated, simulated)
	}
	return false
}

// servePlatform maps a platform name to its calibrated model.
func servePlatform(name string) (platform.Platform, bool) {
	switch name {
	case "crill":
		return platform.Crill(), true
	case "ibex":
		return platform.Ibex(), true
	}
	return platform.Platform{}, false
}

// serveWorkloadNames lists the serve protocol's workload names.
var serveWorkloadNames = []string{"ior", "tileio-256", "tileio-1m", "flashio"}

// serveWorkload maps a workload name to its scaled generator.
func serveWorkload(name string) (workload.Generator, bool) {
	switch name {
	case "ior":
		return ior.Default(), true
	case "tileio-256":
		return tileio.Tile256(), true
	case "tileio-1m":
		return tileio.Tile1M(), true
	case "flashio":
		return flashio.Default(), true
	}
	return nil, false
}
