package analyzer

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The result cache makes repeated collvet runs on an unchanged tree
// close to free: type-checking dominates a cold run, and a package
// whose sources, transitive dependencies and analyzer configuration
// are all unchanged cannot produce different diagnostics, so it is
// neither parsed nor type-checked again.
//
// A package's key is a SHA-256 over: the schema version, the analyzer
// configuration (sorted names), the package's own Go sources, and the
// keys of its transitive dependencies — standard-library dependencies
// collapse to the toolchain version. Keys are computed bottom-up from
// the dependency-ordered `go list -deps` output, so any edit anywhere
// below a package changes its key. Only GoFiles feed the hash; that is
// exactly the input set the analyzers read.

// cacheSchema versions both the on-disk entry format and, implicitly,
// the analyzer implementations: bump it when a suite change must
// invalidate previously cached results wholesale. The key hashes only
// analyzer names, so a rule that changes under an unchanged name needs
// a bump: v3 is the change that moved map-order writes into maporder
// and request leaks into poolpath, which would otherwise replay the
// old rules' results for a warm `-only maporder` or `-only poolpath`;
// v4 is wallclock reporting a global math/rand function passed as a
// value, which a warm v3 cache would replay as clean; v5 is maporder
// dropping the deleted Future.OnDone from its hazards; v6 is poolpath
// dropping its rule for a future taken from a pooled request, and
// payloadalias dropping a completer, both with the MPI calls they
// checked; v7 is the deletion of poolpath and payloadalias, whose
// rules the pooled handles now check at run time.
const cacheSchema = "collvet-cache-v7"

// Cache is a directory of per-package analysis results.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a result cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// DefaultCacheDir returns the per-user default cache location.
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(base, "collio-collvet"), nil
}

// cacheEntry is one package's stored result: its post-suppression
// diagnostics and how many were suppressed.
type cacheEntry struct {
	Diags      []Diagnostic `json:"diags"`
	Suppressed int          `json:"suppressed"`
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key[:2], key[2:]+".json")
}

func (c *Cache) load(key string) (cacheEntry, bool) {
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		return cacheEntry{}, false
	}
	var e cacheEntry
	if json.Unmarshal(data, &e) != nil {
		return cacheEntry{}, false
	}
	return e, true
}

// store writes an entry via rename so a concurrent reader never sees a
// torn file. Failures are swallowed: the cache is an accelerator, not
// a correctness dependency.
func (c *Cache) store(key string, e cacheEntry) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	path := c.entryPath(key)
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	tmp.Close()
	if os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
	}
}

// configString canonicalizes the analyzer selection for key hashing.
func configString(analyzers []*Analyzer) string {
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// packageKeys computes the content hash of every listed package. A
// package whose sources cannot be read, or any of whose dependencies
// has no key, gets no entry (and so always misses).
func packageKeys(listed []listedPackage, config string) map[string]string {
	keys := make(map[string]string, len(listed))
	for _, lp := range listed {
		h := sha256.New()
		fmt.Fprintf(h, "%s\n%s\n%s\n", cacheSchema, config, lp.ImportPath)
		if lp.Standard {
			fmt.Fprintf(h, "std %s\n", runtime.Version())
			keys[lp.ImportPath] = hex.EncodeToString(h.Sum(nil))
			continue
		}
		ok := true
		for _, name := range lp.GoFiles {
			data, err := os.ReadFile(filepath.Join(lp.Dir, name))
			if err != nil {
				ok = false
				break
			}
			fmt.Fprintf(h, "file %s %d\n", name, len(data))
			h.Write(data)
		}
		if !ok {
			continue
		}
		deps := append([]string(nil), lp.Deps...)
		sort.Strings(deps)
		for _, d := range deps {
			dk, found := keys[d]
			if !found {
				ok = false
				break
			}
			fmt.Fprintf(h, "dep %s %s\n", d, dk)
		}
		if ok {
			keys[lp.ImportPath] = hex.EncodeToString(h.Sum(nil))
		}
	}
	return keys
}

// RunCached is the cache-aware equivalent of Load + RunWithStats: it
// lists the packages matching patterns (plus their dependency closure,
// for hashing), serves unchanged packages straight from cache, and
// parses, type-checks and analyzes only the rest. cache may be nil to
// disable caching entirely.
func RunCached(dir string, patterns []string, analyzers []*Analyzer, cache *Cache) ([]Diagnostic, RunStats, error) {
	stats := RunStats{Elapsed: map[string]time.Duration{}}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns, true)
	if err != nil {
		return nil, stats, err
	}
	var keys map[string]string
	if cache != nil {
		keys = packageKeys(listed, configString(analyzers))
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var all []Diagnostic
	for _, lp := range listed {
		if lp.Standard || lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		key := keys[lp.ImportPath]
		if cache != nil && key != "" {
			if e, ok := cache.load(key); ok {
				all = append(all, e.Diags...)
				stats.Suppressed += e.Suppressed
				stats.CacheHits++
				continue
			}
		}
		stats.CacheMisses++
		pkg, err := loadListed(fset, imp, lp)
		if err != nil {
			return nil, stats, err
		}
		diags, suppressed, err := runPackage(pkg, analyzers, stats.Elapsed)
		if err != nil {
			return nil, stats, err
		}
		stats.Suppressed += suppressed
		all = append(all, diags...)
		if cache != nil && key != "" {
			cache.store(key, cacheEntry{Diags: diags, Suppressed: suppressed})
		}
	}
	sortDiagnostics(all)
	return all, stats, nil
}
