package tune

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"collio/internal/exp"
	"collio/internal/sim"
)

// toTime rehydrates a persisted nanosecond count as virtual time.
// sim.Time is defined as int64 nanoseconds, so the cast is the
// identity; the cross-process test pins bit-exactness end to end.
func toTime(ns int64) sim.Time { return sim.Time(ns) }

// storeVersion versions the on-disk record layout. Records carrying a
// different version are skipped on load (a newer process may share the
// file with an older one), never misread. The Config digest has its
// own version (exp's configEncodingVersion) — an encoding bump changes
// every key, so stale-semantics records go unread without any store
// migration.
const storeVersion = 1

// record is the JSON-lines on-disk form of one memoized run. All
// fields are integers or the digest hex string: int64s round-trip
// bit-exactly through encoding/json (decoding into an int64 field
// parses the literal digits, no float detour), which the
// cross-process test pins.
//
//collvet:memoized
type record struct {
	V           int    `json:"v"`
	Digest      string `json:"digest"`
	ElapsedNS   int64  `json:"elapsed_ns"`
	ShuffleNS   int64  `json:"shuffle_ns"`
	WriteNS     int64  `json:"write_ns"`
	Bytes       int64  `json:"bytes"`
	Cycles      int    `json:"cycles"`
	Aggregators int    `json:"aggregators"`
}

// Store is the append-only JSON-lines persistence of a Cache: one
// record per memoized run, keyed by the Config digest. A Store is safe
// for concurrent Put from the sweep workers; writes are buffered and
// reach the file on Flush/Close (and whenever the buffer fills).
type Store struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer
	n    int
}

// OpenStore opens (creating if missing) the JSON-lines store at path
// and returns it along with the digest→result entries it already
// holds. A trailing partial line — the signature of a process killed
// mid-append — is dropped silently AND truncated away, so subsequent
// appends restart on a record boundary instead of gluing new records
// onto the torn fragment (which would turn a recoverable torn tail
// into unrecoverable interior corruption on the next open). An intact
// final record that lacks only its newline is kept and terminated, for
// the same reason. A malformed interior line is a corruption error.
func OpenStore(path string) (*Store, map[exp.Digest]exp.Result, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("tune: reading store %s: %v", path, err)
	}
	entries := make(map[exp.Digest]exp.Result)
	n := 0
	lineno := 0
	goodEnd := 0 // byte offset just past the last intact line
	for i := 0; i < len(data); {
		var line []byte
		next := len(data)
		if j := bytes.IndexByte(data[i:], '\n'); j >= 0 {
			line, next = data[i:i+j], i+j+1
		} else {
			line = data[i:] // final line, no newline: suspect
		}
		lineno++
		if len(line) == 0 {
			goodEnd = next
			i = next
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			if len(bytes.TrimSpace(data[next:])) == 0 {
				break // truncated final append: drop and truncate it
			}
			f.Close()
			return nil, nil, fmt.Errorf("tune: store %s line %d: %v", path, lineno, err)
		}
		if rec.V == storeVersion {
			d, err := exp.ParseDigest(rec.Digest)
			if err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("tune: store %s line %d: %v", path, lineno, err)
			}
			entries[d] = rec.result()
			n++
		}
		goodEnd = next
		i = next
	}
	if goodEnd != len(data) {
		if err := f.Truncate(int64(goodEnd)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(goodEnd), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	if goodEnd > 0 && data[goodEnd-1] != '\n' {
		// An intact final record without its newline: terminate it, or
		// the next append would glue onto the same line.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return &Store{path: path, f: f, w: bufio.NewWriter(f), n: n}, entries, nil
}

// result converts the on-disk form back to the in-memory Result.
func (r record) result() exp.Result {
	return exp.Result{
		Elapsed:      toTime(r.ElapsedNS),
		ShuffleTime:  toTime(r.ShuffleNS),
		WriteTime:    toTime(r.WriteNS),
		BytesWritten: r.Bytes,
		Cycles:       r.Cycles,
		Aggregators:  r.Aggregators,
	}
}

// Put appends one memoized run. The write is buffered; call Flush to
// force it to the file.
func (s *Store) Put(d exp.Digest, r exp.Result) error {
	rec := record{
		V:           storeVersion,
		Digest:      d.String(),
		ElapsedNS:   int64(r.Elapsed),
		ShuffleNS:   int64(r.ShuffleTime),
		WriteNS:     int64(r.WriteTime),
		Bytes:       r.BytesWritten,
		Cycles:      r.Cycles,
		Aggregators: r.Aggregators,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(b); err != nil {
		return err
	}
	if err := s.w.WriteByte('\n'); err != nil {
		return err
	}
	s.n++
	return nil
}

// Len returns the number of records written or loaded so far.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Flush forces buffered records to the file and syncs it, so a
// subsequent process (or a crash) sees every record Put so far.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close flushes and closes the file; the Store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ferr := s.w.Flush()
	cerr := s.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
