package campaign

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"c3d/pkg/c3d/api"
)

// CacheKey is the content address of a job's result: the SHA-256 of the
// canonical JSON of its spec. Canonicalisation zeroes Parallelism, the one
// field proven not to affect result bytes (results are bit-identical at any
// parallelism; the determinism CI gate enforces it), so a sweep re-run with
// different host tuning still hits. Everything else, including the seed and
// the sampling schedule inside Params, stays verbatim: a different seed is a
// different result, and a sampled run is a different result from a full run
// (and from a run under another schedule), so sampling is semantic for the
// cache by construction.
//
// Keying on content rather than job identity is safe precisely because every
// job is deterministic: two specs with equal keys produce equal bytes on any
// worker, which the fleet tests verify with cmp.
func CacheKey(spec api.JobSpec) (string, error) {
	norm := spec
	norm.Params.Parallelism = 0
	b, err := json.Marshal(norm)
	if err != nil {
		return "", fmt.Errorf("campaign: canonicalising spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// resultCache is the coordinator's content-addressed result store: an
// LRU-bounded map from CacheKey to the exact result bytes a worker served.
// Entries are immutable once stored — callers must not mutate returned
// slices.
//
// With a dir configured the cache is also disk-backed: every put writes
// <dir>/<key> (atomic temp+rename), and a memory miss falls back to disk
// before being counted a miss. The disk tier is unbounded and survives
// restarts — it is what makes journal replay cheap, since any job completed
// before a crash resolves as a cache hit instead of a re-dispatch.
type resultCache struct {
	mu    sync.Mutex
	max   int
	dir   string     // "" = memory only
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	logf  func(format string, args ...any)
	hits  int64
	miss  int64
}

type cacheEntry struct {
	key  string
	data []byte
}

func newResultCache(maxEntries int, dir string, logf func(string, ...any)) *resultCache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &resultCache{
		max:   maxEntries,
		dir:   dir,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		logf:  logf,
	}
}

// get returns the cached result bytes and records a hit or miss. Disk reads
// (after a memory miss) repopulate the memory tier and still count as hits.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).data, true
	}
	if c.dir != "" && validCacheKey(key) {
		if data, err := os.ReadFile(filepath.Join(c.dir, key)); err == nil {
			c.hits++
			c.insertLocked(key, data)
			return data, true
		}
	}
	c.miss++
	return nil, false
}

// put stores result bytes under key, evicting the least recently used entry
// beyond the bound. Storing an existing key refreshes recency but keeps the
// original bytes — identical by determinism, so there is nothing to update.
func (c *resultCache) put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.insertLocked(key, data)
	if c.dir != "" && validCacheKey(key) {
		if err := writeFileAtomic(filepath.Join(c.dir, key), data); err != nil {
			c.logf("campaign: cache: persisting %s: %v", key, err)
		}
	}
}

// insertLocked adds a memory entry and trims to the LRU bound. Caller holds mu.
func (c *resultCache) insertLocked(key string, data []byte) {
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
	//c3dlint:allow ctxcheck(LRU trim removes one entry per iteration; bounded by list length, runs under mu)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// has reports whether key is resolvable from either tier without touching
// recency or the hit/miss counters — used by journal replay to decide which
// jobs still need work.
func (c *resultCache) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return true
	}
	if c.dir == "" || !validCacheKey(key) {
		return false
	}
	_, err := os.Stat(filepath.Join(c.dir, key))
	return err == nil
}

// validCacheKey guards the disk tier against journal records containing
// anything but a hex digest (path traversal via a corrupt journal).
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// writeFileAtomic writes via a temp file and rename so a crash mid-write
// never leaves a truncated cache entry for replay to trust.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// stats snapshots the cache counters in the wire shape.
func (c *resultCache) stats() api.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return api.CacheStats{Entries: c.ll.Len(), Hits: c.hits, Misses: c.miss}
}
