//go:build !race

package store

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestDiskAllocBudget keeps the ledger's store rows from regressing
// silently in allocations, on values the size of a DomainRecord (~150
// B): an append allocates nothing of its own (the index's growth is all
// there is), a Get allocates the one buffer its value is a subslice of,
// a Scan a constant per call, and a replay once per distinct key. Not built under
// -race, like the resolver's budget test.
func TestDiskAllocBudget(t *testing.T) {
	const n, runs = 500, 10
	value := bytes.Repeat([]byte("v"), 150)
	// AllocsPerRun makes one warm-up call before its runs; every call
	// gets keys of its own so the index grows as in a campaign.
	batches := make([][]Entry, runs+1)
	for r := range batches {
		for i := 0; i < n; i++ {
			batches[r] = append(batches[r], Entry{Key: fmt.Sprintf("c/1/w/%04d/d/d%05d.example", r, i), Value: value})
		}
	}
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		if err := s.Batch(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); got > n {
		t.Errorf("Batch of %d records: %v allocations, budget ≤ %d (1 per record)", n, got, n)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	key := batches[0][7].Key
	if got := testing.AllocsPerRun(100, func() {
		if v, ok, err := s.Get(key); err != nil || !ok || len(v) != len(value) {
			t.Fatalf("Get = %d bytes, %v, %v", len(v), ok, err)
		}
	}); got > 1 {
		t.Errorf("Get: %v allocations, budget 1", got)
	}

	// Scan reads a chunk of records at a time into a pooled buffer, so
	// what it allocates is a per-call constant, whatever it visits: 0
	// with the pool warm, a few when a GC empties it mid-measurement.
	const scanBudget = 4
	visit := func(string, []byte) error { return nil }
	for _, c := range []struct {
		prefix  string
		records int
	}{{"c/1/w/0000/", n}, {"c/1/w/000", 10 * n}} {
		if got, err := Len(s, c.prefix); err != nil || got != c.records {
			t.Fatalf("Len(%q) = %d, %v; want %d", c.prefix, got, err, c.records)
		}
		if got := testing.AllocsPerRun(runs, func() {
			if err := s.Scan(c.prefix, visit); err != nil {
				t.Fatal(err)
			}
		}); got > scanBudget {
			t.Errorf("Scan over %d records: %v allocations, budget ≤ %d per call", c.records, got, scanBudget)
		} else {
			t.Logf("Scan over %d records: %v allocations", c.records, got)
		}
	}

	// Overwrite one week so replay sees more records than keys.
	if err := s.Batch(batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// fixed covers opening the files and the index's growth steps (~120
	// at 5 500 keys).
	const distinct, fixed = n * (runs + 1), 160
	if got := testing.AllocsPerRun(3, func() {
		d, err := OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}); got > distinct+fixed {
		t.Errorf("OpenDisk replaying %d records of %d keys: %v allocations, budget ≤ %d (1 per key + %d)",
			distinct+n, distinct, got, distinct+fixed, fixed)
	} else {
		t.Logf("OpenDisk replaying %d records of %d keys: %v allocations", distinct+n, distinct, got)
	}

	// In bytes, a reopen pays for its keys and an index sized once from
	// the replay's sample: growing the index by append's steps instead
	// costs about twice as much (253 bytes per key here).
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	const bytesPerKey = 150 // 128 measured
	if got := (m1.TotalAlloc - m0.TotalAlloc) / distinct; got > bytesPerKey {
		t.Errorf("OpenDisk over %d keys: %d bytes per key, budget %d", distinct, got, bytesPerKey)
	} else {
		t.Logf("OpenDisk over %d keys: %d bytes per key", distinct, got)
	}
}

// TestScanChunkAllocBudget: once its pooled chunk has grown to the
// chunks it reads, a Scan allocates nothing, however many chunks and
// runs it reads. The collector is off while measuring, so it cannot
// empty the pool mid-run.
func TestScanChunkAllocBudget(t *testing.T) {
	const n = 3000
	d, _, keys := fillInterleaved(t, n, 20, 150)
	visit := func(string, []byte) error { return nil }
	if err := d.Scan("w/", visit); err != nil { // flush, merge the index, grow the chunk
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(10, func() {
		if err := d.Scan("w/", visit); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Scan over %d chunks of 20 shards: %v allocations, want 0", chunksOf(d, keys), got)
	}
}
