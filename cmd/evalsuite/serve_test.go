package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"collio/internal/tune"
)

// syncBuffer lets the test poll serve output while runServe writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeQueryLoop drives the -serve protocol end to end: a cold
// select simulates, the identical warm select answers from the cache
// without simulating, stats reflects both, and quit flushes.
func TestServeQueryLoop(t *testing.T) {
	in := strings.NewReader("select crill ior 8\nselect crill ior 8\nbogus\nstats\nquit\n")
	var out syncBuffer
	err := runServe(in, &out, make(chan os.Signal), tune.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, w := range []string{
		"serve: ready",
		"[cold:",
		"[warm: 10/10 cached, 0 simulated]",
		`unknown command "bogus"`,
		"stats: entries=10",
		"serve: quit; cache flushed (10 entries",
	} {
		if !strings.Contains(got, w) {
			t.Errorf("serve output missing %q:\n%s", w, got)
		}
	}
	// The warm answer line must match the cold one up to the cache
	// annotation (same best configuration, same predicted time).
	lines := strings.Split(got, "\n")
	var bests []string
	for _, l := range lines {
		if strings.HasPrefix(l, "best:") {
			bests = append(bests, l[:strings.Index(l, " [")])
		}
	}
	if len(bests) != 2 || bests[0] != bests[1] {
		t.Errorf("warm answer differs from cold: %q", bests)
	}
}

// TestServeBadRequests: malformed requests report errors without
// killing the loop, each as one line byte for byte.
func TestServeBadRequests(t *testing.T) {
	in := strings.NewReader("select nowhere ior 8\nselect crill nothing 8\nselect crill ior zero\nselect\nfrobnicate now\n\nquit\n")
	var out syncBuffer
	if err := runServe(in, &out, make(chan os.Signal), tune.Options{Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, w := range []string{
		"error: unknown platform \"nowhere\" (want crill|ibex)\n",
		"error: unknown workload \"nothing\" (want ior|tileio-256|tileio-1m|flashio)\n",
		"error: bad rank count \"zero\"\n",
		"error: usage: select <crill|ibex> <workload> <np>\n",
		"error: unknown command \"frobnicate\" (want select|stats|quit)\n",
		"serve: quit",
	} {
		if !strings.Contains(got, w) {
			t.Errorf("serve output missing %q:\n%s", w, got)
		}
	}
	if n := strings.Count(got, "error: "); n != 5 {
		t.Errorf("serve output has %d error lines, want 5:\n%s", n, got)
	}
}

// FuzzServeRequest: any input line parses to a command or to an error
// of one line, and a parsed select carries a question the tuner can
// ask. The seed corpus under testdata/fuzz covers every command and
// every error.
func FuzzServeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		cmd, err := parseServeRequest(line)
		if err != nil {
			if cmd != (serveCmd{}) {
				t.Errorf("%q: error %v with command %+v", line, err, cmd)
			}
			if strings.ContainsAny(err.Error(), "\r\n") {
				t.Errorf("%q: error %q spans lines", line, err)
			}
			return
		}
		switch cmd.op {
		case "":
			if strings.TrimSpace(line) != "" {
				t.Errorf("%q: non-blank line parsed as blank", line)
			}
		case "quit", "stats":
		case "select":
			if cmd.gen == nil || cmd.np <= 0 || cmd.pf.Name == "" {
				t.Errorf("%q: select without a question: %+v", line, cmd)
			}
		default:
			t.Errorf("%q: unknown op %q", line, cmd.op)
		}
	})
}

// sigOnSecondRead delivers one request line, then — on the serve
// loop's next read, which happens strictly after the request has been
// handed to the request loop (the hand-off channel is unbuffered) —
// fires a signal and blocks. That pins the interrupt to land while the
// sweep is in flight, deterministically.
type sigOnSecondRead struct {
	line string
	sig  chan<- os.Signal
	read bool
}

func (r *sigOnSecondRead) Read(p []byte) (int, error) {
	if !r.read {
		r.read = true
		return copy(p, r.line), nil
	}
	r.sig <- os.Interrupt
	select {} // block: input stays open, only the signal can end the loop
}

// TestServeSIGINTDrainsAndFlushes: a SIGINT delivered while a sweep is
// in flight lets the sweep finish (requests are synchronous), then
// flushes the on-disk cache before the loop returns — a fresh process
// opening the store sees every record and serves warm.
func TestServeSIGINTDrainsAndFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	var out syncBuffer
	sig := make(chan os.Signal, 1)
	in := &sigOnSecondRead{line: "select crill ior 8\n", sig: sig}
	errc := make(chan error, 1)
	go func() {
		errc <- runServe(in, &out, sig, tune.Options{Parallel: 1, CachePath: path})
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("runServe: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("runServe did not exit after SIGINT")
	}
	got := out.String()
	if !strings.Contains(got, "best:") {
		t.Fatalf("in-flight sweep was not drained:\n%s", got)
	}
	if !strings.Contains(got, "serve: interrupted; cache flushed (10 entries") {
		t.Fatalf("no flush report after SIGINT:\n%s", got)
	}

	// The flush was real: a second serve process over the same store
	// answers warm without simulating.
	in2 := strings.NewReader("select crill ior 8\nquit\n")
	var out2 syncBuffer
	if err := runServe(in2, &out2, make(chan os.Signal), tune.Options{Parallel: 1, CachePath: path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.String(), "[warm: 10/10 cached, 0 simulated]") {
		t.Fatalf("restarted serve did not hit the flushed store:\n%s", out2.String())
	}
}

// TestValidateExpSelect: the select experiment is a valid -exp name and
// typos near it are still rejected with the full list.
func TestValidateExpSelect(t *testing.T) {
	if err := validateExp("select"); err != nil {
		t.Fatalf("validateExp(select): %v", err)
	}
	err := validateExp("selects")
	if err == nil {
		t.Fatal("validateExp accepted a typo")
	}
	if !strings.Contains(err.Error(), "select") {
		t.Errorf("rejection should list valid names: %v", err)
	}
}
