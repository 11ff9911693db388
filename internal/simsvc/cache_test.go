package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func result(n uint64) *JobResult {
	return &JobResult{
		Spec: JobSpec{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine"}.Normalize(),
		Cell: &CellResult{Cycles: n},
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	c, err := NewCache(4, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(context.Background(), "aaaa"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("aaaa", result(1))
	for i := 0; i < 3; i++ {
		v, ok := c.Get(context.Background(), "aaaa")
		if !ok || v.Cell.Cycles != 1 {
			t.Fatalf("lookup %d: got %v, %v", i, v, ok)
		}
	}
	s := c.Stats()
	if s.Hits != 3 || s.Misses != 1 || s.DiskHits != 0 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 3 hits / 1 miss / 1 entry", s)
	}
	if got := s.HitRatio(); got != 0.75 {
		t.Fatalf("hit ratio = %v, want 0.75", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k1", result(1))
	c.Put("k2", result(2))
	if _, ok := c.Get(context.Background(), "k1"); !ok { // k1 now most recently used
		t.Fatal("k1 missing")
	}
	c.Put("k3", result(3)) // evicts k2, the least recently used
	if _, ok := c.Get(context.Background(), "k2"); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := c.Get(context.Background(), "k1"); !ok {
		t.Fatal("k1 should have survived eviction")
	}
	if _, ok := c.Get(context.Background(), "k3"); !ok {
		t.Fatal("k3 should be present")
	}
	if s := c.Stats(); s.Entries != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries)
	}
}

func TestCacheDiskStore(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine"}
	key := spec.Hash()
	c1.Put(key, result(42))

	if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
		t.Fatalf("disk entry not written: %v", err)
	}

	// A fresh cache over the same directory serves the entry from disk.
	c2, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c2.Get(context.Background(), key)
	if !ok || v.Cell == nil || v.Cell.Cycles != 42 {
		t.Fatalf("disk lookup: got %+v, %v", v, ok)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want exactly one disk hit", s)
	}
	// The disk hit was promoted: the next lookup is a memory hit.
	if _, ok := c2.Get(context.Background(), key); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := c2.Stats(); s.Hits != 1 {
		t.Fatalf("stats = %+v, want one memory hit after promotion", s)
	}

	// Entries are written compact, and indented ones written before
	// entries became compact still load.
	data, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, data); err != nil || !bytes.Equal(compact.Bytes(), bytes.TrimSuffix(data, []byte("\n"))) {
		t.Fatalf("disk entry is not compact JSON (%v): %s", err, data)
	}
	old := JobSpec{Experiment: ExperimentCell, Scheme: "NS", Windows: 8, Behavior: "high-fine"}.Hash()
	indented, err := json.MarshalIndent(result(7), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, old+".json"), indented, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := c2.Get(context.Background(), old); !ok || v.Cell == nil || v.Cell.Cycles != 7 {
		t.Fatalf("indented disk entry: got %+v, %v", v, ok)
	}
}

func TestCacheCorruptDiskEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := (JobSpec{Experiment: "fig11"}).Hash()
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(context.Background(), key); ok {
		t.Fatal("corrupt disk entry served as a hit")
	}
}

// TestCacheHostileKeyStaysInDir pins that a key containing path
// metacharacters never touches the disk store.
func TestCacheHostileKeyStaysInDir(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("../escape", result(1))
	if _, err := os.Stat(filepath.Join(dir, "..", "escape.json")); !os.IsNotExist(err) {
		t.Fatal("hostile key escaped the cache directory")
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(context.Background(), "k"); ok {
		t.Fatal("nil cache hit")
	}
	c.Put("k", result(1)) // must not panic
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil stats = %+v", s)
	}
}

func TestCacheDefaultSize(t *testing.T) {
	c, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultCacheEntries+10; i++ {
		c.Put(fmt.Sprintf("k%05d", i), result(uint64(i)))
	}
	if s := c.Stats(); s.Entries != DefaultCacheEntries {
		t.Fatalf("entries = %d, want %d", s.Entries, DefaultCacheEntries)
	}
}

// TestCacheTruncatedDiskEntryDeleted is the regression test for
// truncated disk entries: a partially written file must read as a miss
// and be deleted — not re-parsed as garbage on every later lookup.
func TestCacheTruncatedDiskEntryDeleted(t *testing.T) {
	dir := t.TempDir()
	key := "abc123"

	c1, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key, &JobResult{Spec: JobSpec{Experiment: ExperimentCell}})
	path := filepath.Join(dir, key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("Put did not write the disk entry: %v", err)
	}

	// Truncate mid-JSON, as an interrupted writer without the
	// write-then-rename discipline (or a disk fault) would leave it.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(0, dir) // fresh cache: no in-memory copy
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(context.Background(), key); ok {
		t.Fatal("a truncated disk entry was served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("the corrupt entry was not deleted (stat err: %v)", err)
	}
	if s := c2.Stats(); s.Misses != 1 || s.DiskHits != 0 {
		t.Errorf("stats = %+v, want exactly one miss", s)
	}

	// The slot is fully recovered: a recompute stores cleanly.
	c2.Put(key, &JobResult{Spec: JobSpec{Experiment: ExperimentCell}})
	c3, _ := NewCache(0, dir)
	if _, ok := c3.Get(context.Background(), key); !ok {
		t.Fatal("the rewritten entry does not load")
	}
}

// TestCacheCrashLeftoverTmpIgnored is the torn-write regression test
// for the fsync-rename store discipline: a writer that died between
// creating the temp file and the rename leaves only "<key>.json.tmp"
// behind. That leftover must never be served, must not block a clean
// rewrite of the entry, and the final store file must appear complete.
func TestCacheCrashLeftoverTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	key := "feedface01"
	tmp := filepath.Join(dir, key+".json.tmp")

	// Simulate the crash: a half-written temp file, no final file.
	if err := os.WriteFile(tmp, []byte(`{"spec":{"experi`), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(context.Background(), key); ok {
		t.Fatal("a crash leftover .tmp file was served as the entry")
	}

	// A recompute stores cleanly over the leftover.
	want := &JobResult{Spec: JobSpec{Experiment: ExperimentCell, Scheme: "SP", Windows: 8, Behavior: "high-fine"}.Normalize()}
	c.Put(key, want)
	if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
		t.Fatalf("the rewritten entry is missing: %v", err)
	}
	c2, _ := NewCache(0, dir)
	got, ok := c2.Get(context.Background(), key)
	if !ok || got.Spec.Scheme != "SP" {
		t.Fatalf("the rewritten entry does not load: %+v, %v", got, ok)
	}
}
