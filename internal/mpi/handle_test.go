package mpi

import (
	"bytes"
	"strings"
	"testing"
)

// recovered runs fn and returns the string it panicked with, "" if none.
func recovered(fn func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	fn()
	return ""
}

// TestReleasedHandlesPanic runs each misuse of a released request on
// rank 0 of a two-rank world (rank 1 sends rank 0 one message) and
// checks the run panics with a message naming the handle.
func TestReleasedHandlesPanic(t *testing.T) {
	cases := []struct {
		name string
		body func(r *Rank)
		want string
	}{
		{"Received after Wait", func(r *Rank) {
			q := r.Irecv(1, 0, 8, nil)
			r.Wait(q)
			_ = q.Received()
		}, "Received on a released Request"},
		{"double Wait", func(r *Rank) {
			q := r.Irecv(1, 0, 8, nil)
			r.Wait(q)
			r.Wait(q)
		}, "Wait on a released Request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, w := testWorld(t, 2, 1, 1, nil)
			w.Launch(func(r *Rank) {
				if r.ID() == 0 {
					tc.body(r)
				} else {
					r.Send(0, 0, Symbolic(8))
				}
			})
			if msg := recovered(func() { k.Run() }); !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q, want one containing %q", msg, tc.want)
			}
		})
	}
}

// TestDoubleReleasePanics releases a protocol message and a put
// completion twice: the second release names the handle instead of
// threading the object onto its free list a second time.
func TestDoubleReleasePanics(t *testing.T) {
	_, w := testWorld(t, 2, 1, 1, nil)
	r, e := w.ranks[0], w.ranks[1].eng
	for _, tc := range []struct {
		name    string
		release func()
		want    string
	}{
		{"msg", func() {
			m := r.newMsg(msgEager, w.ranks[1])
			e.releaseMsg(m)
			e.releaseMsg(m)
		}, "release of a released protocol message"},
		{"putDone", func() {
			p := r.newPut(1)
			p.release()
			p.release()
		}, "release of a released put completion"},
	} {
		if msg := recovered(tc.release); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: panic %q, want one containing %q", tc.name, msg, tc.want)
		}
	}
}

// TestPutSourceWrittenBeforeDelivery writes a data-mode Put's source
// right after the Put, inside its fence epoch: the delivery's copy
// finds the bytes changed and panics instead of landing them.
func TestPutSourceWrittenBeforeDelivery(t *testing.T) {
	k, w := testWorld(t, 2, 1, 1, nil)
	w.Launch(func(r *Rank) {
		win := r.WinAllocate(int64(8*r.ID()), true)
		r.WinFence(win)
		if r.ID() == 0 {
			src := []byte("abcdefgh")
			r.Put(win, 1, 0, Bytes(src))
			src[0] = 'X'
		}
		r.WinFence(win)
	})
	want := "data-mode Put to target 1: its source was written before delivery"
	if msg := recovered(func() { k.Run() }); !strings.Contains(msg, want) {
		t.Fatalf("panic %q, want one containing %q", msg, want)
	}
}

// TestIsendCopiesAtPost pins the payload contract: Isend copies a data
// payload when it is posted, so the sender may overwrite its buffer as
// soon as the call returns, and the receiver gets the bytes as posted,
// on the eager path and on the rendezvous path.
func TestIsendCopiesAtPost(t *testing.T) {
	for _, size := range []int{64, 2 << 20} {
		k, w := testWorld(t, 2, 1, 1, nil)
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*7 + 1)
		}
		got := make([]byte, size)
		w.Launch(func(r *Rank) {
			if r.ID() == 0 {
				buf := append([]byte(nil), want...)
				q := r.Isend(1, 3, Bytes(buf))
				clear(buf) // reuse at once, as fcoll's pack scratch does
				r.Wait(q)
			} else {
				r.Recv(0, 3, int64(size), got)
			}
		})
		k.Run()
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte send: receiver got the scrubbed buffer, not the bytes as posted", size)
		}
	}
}

// TestDroppedRequestStaysLive drops an Isend's request instead of
// waiting it: the run completes, and LivePooled still counts the
// request, which is what fails an exp run at world end.
func TestDroppedRequestStaysLive(t *testing.T) {
	k, w := testWorld(t, 2, 1, 1, nil)
	w.Launch(func(r *Rank) {
		if r.ID() == 0 {
			_ = r.Isend(1, 0, Symbolic(8))
		} else {
			r.Recv(0, 0, 8, nil)
		}
	})
	k.Run()
	if reqs, msgs, puts := w.LivePooled(); reqs != 1 || msgs != 0 || puts != 0 {
		t.Fatalf("live after the run: %d requests, %d messages, %d puts; want 1, 0, 0", reqs, msgs, puts)
	}
}
