package tune

import (
	"sync"

	"collio/internal/exp"
)

// Cache is the concurrency-safe memo table of the tuner: a
// digest-keyed map of exp.Results, optionally persisted through a
// Store, with single-flight de-duplication of concurrent misses — on a
// cold cache, any number of concurrent callers asking the same
// question run exactly one simulation (the others block on the
// leader's flight and receive its result), pinned by
// TestSelectSingleFlight.
//
// Persistence errors do not poison the memo: a Put that fails to reach
// the disk keeps the in-memory entry and records the first error for
// Flush to report, so a full disk degrades the cache to in-memory
// instead of failing sweeps.
type Cache struct {
	mu       sync.Mutex
	entries  map[exp.Digest]exp.Result
	inflight map[exp.Digest]*flight
	// digests memoizes Config → Digest so a warm query does one map
	// lookup instead of re-serializing the ~1.5 KB canonical encoding
	// per grid point — the difference between a warm Select being
	// allocation-heavy and being O(lookup). Config is comparable for
	// every built-in generator (plain scalar structs); a custom
	// Canonical generator with unhashable fields falls back to
	// recomputing (see digestOf).
	digests  map[exp.Config]exp.Digest
	store    *Store
	storeErr error
	stats    CacheStats
}

// flight is one in-progress simulation: the leader closes done after
// publishing res/err, and every coalesced waiter reads them.
type flight struct {
	done chan struct{}
	res  exp.Result
	err  error
}

// CacheStats counts cache traffic since construction.
type CacheStats struct {
	// Hits answered from the memo table without simulating (including
	// results inherited from the on-disk store).
	Hits int64
	// Misses found no memo entry. Misses == Simulations + Coalesced.
	Misses int64
	// Simulations actually executed (one per distinct cold digest).
	Simulations int64
	// Coalesced callers waited on another caller's in-flight
	// simulation instead of running their own.
	Coalesced int64
	// Entries currently memoized.
	Entries int
}

// NewCache returns an empty in-memory cache. With a non-nil store the
// cache starts warm from the store's existing records and appends
// every new result to it.
func NewCache(store *Store, preload map[exp.Digest]exp.Result) *Cache {
	entries := make(map[exp.Digest]exp.Result, len(preload))
	for d, r := range preload {
		entries[d] = r
	}
	return &Cache{
		entries:  entries,
		inflight: make(map[exp.Digest]*flight),
		digests:  make(map[exp.Config]exp.Digest),
		store:    store,
	}
}

// OpenCache opens (creating if missing) the on-disk store at path and
// returns a cache warm with its records. An empty path returns a pure
// in-memory cache.
func OpenCache(path string) (*Cache, error) {
	if path == "" {
		return NewCache(nil, nil), nil
	}
	store, entries, err := OpenStore(path)
	if err != nil {
		return nil, err
	}
	return NewCache(store, entries), nil
}

// Lookup returns the memoized result for a digest, if present. A pure
// O(lookup) read: no simulation, no single-flight, no store traffic.
func (c *Cache) Lookup(d exp.Digest) (exp.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.entries[d]
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return r, ok
}

// EvalSpec answers the question the spec's Config identifies,
// simulating at most once per digest process-wide: a warm digest
// returns its memoized Result untouched (hit == true, bit-identical to
// the run that populated it), a cold digest runs exp.Execute — with
// whatever execution strategy the spec carries (bundling);
// result-affecting fields are part of the digest, so any strategy may
// populate the line — and memoizes the Result. Concurrent
// cold calls on one digest coalesce onto a single simulation.
func (c *Cache) EvalSpec(spec exp.Spec) (res exp.Result, hit bool, err error) {
	cfg, err := spec.Config()
	if err != nil {
		return exp.Result{}, false, err
	}
	d, err := c.digestOf(cfg)
	if err != nil {
		return exp.Result{}, false, err
	}

	c.mu.Lock()
	if r, ok := c.entries[d]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		return r, true, nil
	}
	c.stats.Misses++
	if f, ok := c.inflight[d]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-f.done
		return f.res, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[d] = f
	c.stats.Simulations++
	c.mu.Unlock()

	f.res, f.err = exp.Execute(spec)

	c.mu.Lock()
	if f.err == nil {
		c.entries[d] = f.res
		if c.store != nil {
			if perr := c.store.Put(d, f.res); perr != nil && c.storeErr == nil {
				c.storeErr = perr
			}
		}
	}
	delete(c.inflight, d)
	c.mu.Unlock()
	close(f.done)
	return f.res, false, f.err
}

// digestOf memoizes the Config → Digest mapping. The canonical
// encoding allocates ~1.5 KB per call; on the warm path that was the
// whole cost of a query, so Select was "O(lookup)" in name only. With
// the memo a repeated config costs one map probe.
func (c *Cache) digestOf(cfg exp.Config) (exp.Digest, error) {
	if d, ok := c.digestLookup(cfg); ok {
		return d, nil
	}
	d, err := cfg.Digest()
	if err != nil {
		return exp.Digest{}, err
	}
	c.digestStore(cfg, d)
	return d, nil
}

// digestLookup probes the Config → Digest memo. A Config holding a
// custom Canonical generator with unhashable fields (slice, map, func)
// panics inside the map probe; the recover turns that into a miss so
// such configs simply pay the full encoding each time.
func (c *Cache) digestLookup(cfg exp.Config) (d exp.Digest, ok bool) {
	defer func() {
		if recover() != nil {
			d, ok = exp.Digest{}, false
		}
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok = c.digests[cfg]
	return d, ok
}

func (c *Cache) digestStore(cfg exp.Config, d exp.Digest) {
	defer func() { recover() }()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.digests[cfg] = d
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// Flush persists buffered store records and returns the first
// persistence error seen since the last Flush (nil for an in-memory
// cache).
func (c *Cache) Flush() error {
	c.mu.Lock()
	store, serr := c.store, c.storeErr
	c.storeErr = nil
	c.mu.Unlock()
	if store == nil {
		return serr
	}
	if err := store.Flush(); err != nil && serr == nil {
		serr = err
	}
	return serr
}

// Close flushes and closes the underlying store, if any.
func (c *Cache) Close() error {
	ferr := c.Flush()
	c.mu.Lock()
	store := c.store
	c.store = nil
	c.mu.Unlock()
	if store != nil {
		if err := store.Close(); err != nil && ferr == nil {
			ferr = err
		}
	}
	return ferr
}
