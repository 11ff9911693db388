package simsvc

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Cache is the content-addressed result store: an in-memory LRU over
// spec hashes, optionally backed by a directory of one JSON file per
// entry so results survive restarts and can be shared between the CLI
// and the daemon. Simulations are deterministic, so entries never
// expire; eviction is purely a memory bound.
//
// The write discipline is single-writer-per-key by construction (a key
// is the hash of the job that produced the value, and any two writers
// would write identical bytes), so readers never observe a torn or
// stale result — the property the wait-free snapshot literature calls
// freshness comes free with content addressing.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	dir     string

	// flights coalesces concurrent misses on the same key: the first
	// caller (the leader) reads and decodes the disk entry once and
	// every concurrent caller waits for its answer, so a cold key costs
	// one disk read no matter how many requests race on it.
	flights map[string]*cacheFlight

	hits      uint64 // in-memory hits
	diskHits  uint64 // misses answered by the disk store
	coalesced uint64 // callers answered by joining another caller's flight
	misses    uint64
}

// cacheFlight is one in-progress cold lookup; v and ok are written
// before done is closed, so any goroutine that returns from <-done
// reads them race-free.
type cacheFlight struct {
	done chan struct{}
	v    *JobResult
	ok   bool
}

type cacheEntry struct {
	key   string
	value *JobResult
	// enc is value's JSON encoding, nil until a request is first
	// answered from this entry (see appendHit).
	enc *encodedResult
}

// encodedResult is a cached value's encoding, made once by the first
// cache-hit answer; racing answers wait on once.
type encodedResult struct {
	once sync.Once
	body []byte
	err  error
}

// DefaultCacheEntries bounds the in-memory LRU when no explicit size
// is configured. A full five-figure sweep at the paper's window counts
// is 540 cells; this keeps several full sweeps resident.
const DefaultCacheEntries = 4096

// MaxRetainedJobs bounds how many terminal jobs a Pool keeps for
// GET /v1/jobs/{id}. Past it the job that became terminal first is
// forgotten, and its id answers 404; resubmitting its spec is answered
// by the cache. Queued and running jobs are never forgotten. A figures
// pass submits 225 jobs to a fresh pool and reads every one back.
const MaxRetainedJobs = 4096

// NewCache creates a cache holding at most max entries in memory
// (DefaultCacheEntries when max <= 0). If dir is non-empty it is
// created if needed and used as the on-disk JSON store.
func NewCache(max int, dir string) (*Cache, error) {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("simsvc: cache dir: %w", err)
		}
	}
	return &Cache{
		max:     max,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		dir:     dir,
		flights: make(map[string]*cacheFlight),
	}, nil
}

// Get returns the cached result for the key, consulting memory, then
// the disk store; a disk hit is promoted into memory, so a cell read
// once keeps being served from memory. Concurrent misses on one key
// share a single disk read: the first caller fills, the rest wait for
// its answer. The context bounds only that wait — a caller whose ctx
// ends while another caller's fill is in flight returns a miss — and
// a memory hit is served whatever the context.
func (c *Cache) Get(ctx context.Context, key string) (*JobResult, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*cacheEntry).value
		c.mu.Unlock()
		return v, true
	}
	if f, ok := c.flights[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.v, f.ok
		case <-ctx.Done():
			return nil, false
		}
	}
	f := &cacheFlight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	v, ok := c.loadDisk(key)
	c.mu.Lock()
	if ok {
		c.diskHits++
		c.insertLocked(key, v)
	} else {
		c.misses++
	}
	delete(c.flights, key)
	c.mu.Unlock()
	f.v, f.ok = v, ok
	close(f.done)
	return v, ok
}

// appendHit appends the JSON encoding of v, a result Get returned for
// key, to buf. The first call for an entry encodes v and stores the
// bytes beside it; later calls copy them. A cached value is never
// modified (its key is its content address), so the stored bytes never
// go stale. A value no longer cached under key (evicted or replaced) is
// encoded afresh and not stored.
//
// Encoding waits for the first hit instead of happening in Put because
// most results are never asked for again: storing each one's encoding
// would keep every result twice (a traced cell's is 47-74 KB), and Put
// also runs for sweeps that never serve JSON.
func (c *Cache) appendHit(buf *bytes.Buffer, key string, v *JobResult) error {
	var enc *encodedResult
	if c != nil {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			if e := el.Value.(*cacheEntry); e.value == v {
				if e.enc == nil {
					e.enc = new(encodedResult)
				}
				enc = e.enc
			}
		}
		c.mu.Unlock()
	}
	if enc == nil {
		return appendJSON(buf, v)
	}
	enc.once.Do(func() {
		tmp := getBuffer()
		defer putBuffer(tmp)
		if enc.err = appendJSON(tmp, v); enc.err == nil {
			enc.body = bytes.Clone(tmp.Bytes())
		}
	})
	if enc.err != nil {
		return enc.err
	}
	buf.Write(enc.body)
	return nil
}

// Put stores the result under the key, in memory and (when configured)
// on disk. Storing an already-present key refreshes its LRU position.
func (c *Cache) Put(key string, v *JobResult) {
	if c == nil || v == nil {
		return
	}
	c.mu.Lock()
	c.insertLocked(key, v)
	c.mu.Unlock()
	c.storeDisk(key, v)
}

func (c *Cache) insertLocked(key string, v *JobResult) {
	if el, ok := c.entries[key]; ok {
		if e := el.Value.(*cacheEntry); e.value != v {
			e.value, e.enc = v, nil
		}
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, value: v})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// diskPath maps a key onto its store file; keys are hex hashes, but
// sanitize defensively so a hostile key cannot escape the directory.
func (c *Cache) diskPath(key string) (string, bool) {
	if c.dir == "" || key == "" || strings.ContainsAny(key, "/\\.") {
		return "", false
	}
	return filepath.Join(c.dir, key+".json"), true
}

func (c *Cache) loadDisk(key string) (*JobResult, bool) {
	path, ok := c.diskPath(key)
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var v JobResult
	if err := json.Unmarshal(data, &v); err != nil {
		// A truncated or corrupt entry (interrupted writer, disk fault)
		// is a miss, and the broken file is deleted immediately: leaving
		// it would re-parse the garbage on every lookup, and a later
		// recompute rewrites the entry cleanly anyway.
		_ = os.Remove(path)
		return nil, false
	}
	return &v, true
}

func (c *Cache) storeDisk(key string, v *JobResult) {
	path, ok := c.diskPath(key)
	if !ok {
		return
	}
	buf := getBuffer()
	defer putBuffer(buf)
	if err := appendJSON(buf, v); err != nil {
		return
	}
	buf.WriteByte('\n')
	data := buf.Bytes()
	// Write-fsync-rename-fsync so the store survives a crash at any
	// point: concurrent readers (another winsim process sharing
	// -cachedir) never see a partial file behind the final name, and a
	// power cut cannot leave a renamed entry whose bytes were still in
	// the page cache — the torn-write case the load path would otherwise
	// have to detect and delete.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = os.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return
	}
	// The rename itself lives in the directory; sync it too so the
	// entry's existence is durable, not just its contents.
	if d, err := os.Open(c.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// CacheStats is a snapshot of the cache counters. Coalesced callers
// (answered by joining another caller's in-flight lookup) are counted
// on their own — not as hits or misses — so the tier counters keep
// meaning "work the cache actually performed".
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`      // in-memory hits
	DiskHits  uint64 `json:"disk_hits"` // served from the disk store
	Coalesced uint64 `json:"coalesced"` // joined an in-flight cold lookup
	Misses    uint64 `json:"misses"`
}

// HitRatio is (hits+disk hits) / lookups, 0 with no lookups.
// Coalesced callers are excluded from both sides.
func (s CacheStats) HitRatio() float64 {
	served := s.Hits + s.DiskHits
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Hits:      c.hits,
		DiskHits:  c.diskHits,
		Coalesced: c.coalesced,
		Misses:    c.misses,
	}
}
