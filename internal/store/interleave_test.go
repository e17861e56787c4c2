package store

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// readCountFS is osFS with a count of every ReadAt made on the files it
// opens: Scan's reads, since nothing else in the store reads at an
// offset.
type readCountFS struct {
	osFS
	reads atomic.Int64
}

func (c *readCountFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := c.osFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return readCountFile{f, &c.reads}, nil
}

type readCountFile struct {
	file
	reads *atomic.Int64
}

func (f readCountFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	return f.file.ReadAt(p, off)
}

// interleavedKey names the i-th key of interleavedShards.
func interleavedKey(i int) string { return fmt.Sprintf("w/%05d", i) }

// interleavedShards returns n keys as the batches a campaign over an
// unsorted domain list appends: the list shuffled, cut into shards
// consecutive in it, and each shard sorted. The shards' keys then
// interleave in key order, so a chunk of keys draws from every shard.
func interleavedShards(rng *rand.Rand, n, shards int, value func() []byte) [][]Entry {
	perm := rng.Perm(n)
	batches := make([][]Entry, shards)
	for s := range batches {
		ids := slices.Clone(perm[s*n/shards : (s+1)*n/shards])
		slices.Sort(ids)
		for _, i := range ids {
			batches[s] = append(batches[s], Entry{Key: interleavedKey(i), Value: value()})
		}
	}
	return batches
}

// chunksOf counts the chunks a Scan over keys reads them in.
func chunksOf(d *Disk, keys []string) int {
	chunks, total := 0, 0
	for i, k := range keys {
		ln := int(d.refs[d.index[k]].ln)
		if i == 0 || total+ln > scanChunkBytes {
			chunks, total = chunks+1, 0
		}
		total += ln
	}
	return chunks
}

// TestScanInterleavedShards pins Disk's Scan to the model and Mem when
// a chunk's records are regrouped by where they lie in the log: S
// key-ordered batches whose keys interleave, runs that cross segment
// rotations, overwrites whose newest record lies far from the rest of
// its shard, records still in the write buffer, and one value larger
// than a chunk. Every prefix of every key must scan alike. Then a ref
// pointing at another record of its own run, and a flipped byte inside
// a run, must still fail the Scan.
func TestScanInterleavedShards(t *testing.T) {
	for _, shards := range []int{1, 3, 20, 300} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 1200
			rng := rand.New(rand.NewSource(int64(shards)))
			ref, mem := model{}, NewMem()
			disk, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			disk.SegmentBytes = 8 << 10 // runs cross rotations inside a chunk
			value := func(n int) []byte { return []byte(strings.Repeat(string(rune('a'+rng.Intn(26))), n)) }
			write := func(batch ...Entry) {
				t.Helper()
				for _, e := range batch {
					ref[e.Key] = string(e.Value)
				}
				if err := mem.Batch(batch); err != nil {
					t.Fatal(err)
				}
				if err := disk.Batch(batch); err != nil {
					t.Fatal(err)
				}
			}
			batches := interleavedShards(rng, n, shards, func() []byte { return value(50 + rng.Intn(300)) })
			for _, b := range batches {
				write(b...)
			}
			write(Entry{Key: interleavedKey(rng.Intn(n)), Value: value(scanChunkBytes + 100)})
			for _, i := range rng.Perm(n)[:8] { // newest records far from their shard
				write(Entry{Key: interleavedKey(i), Value: value(40)})
			}
			if disk.w.Buffered() == 0 {
				t.Fatal("the last writes were flushed; the case needs them in the write buffer")
			}

			prefixes := map[string]bool{}
			for k := range ref {
				for l := 0; l <= len(k); l++ {
					if !prefixes[k[:l]] {
						prefixes[k[:l]] = true
						compareScans(t, ref, k[:l], mem, disk)
					}
				}
			}

			// Two keys of the last shard, adjacent in its batch, whose
			// records lie back to back in one run.
			sa, sb := -1, -1
			last := batches[len(batches)-1]
			for i := 1; i < len(last) && sa < 0; i++ {
				a, b := disk.index[last[i-1].Key], disk.index[last[i].Key]
				if ra, rb := disk.refs[a], disk.refs[b]; ra.seg == rb.seg && ra.off+int64(ra.ln) == rb.off {
					sa, sb = a, b
				}
			}
			if sa < 0 {
				t.Fatal("no two records of the last shard lie back to back")
			}
			disk.refs[sa], disk.refs[sb] = disk.refs[sb], disk.refs[sa]
			if err := disk.Scan("", func(string, []byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "holds key") {
				t.Errorf("Scan over swapped refs: %v, want a key mismatch", err)
			}
			disk.refs[sa], disk.refs[sb] = disk.refs[sb], disk.refs[sa]

			rf := disk.refs[sb]
			f, err := os.OpenFile(disk.segPath(int(rf.seg), segSuffix), os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			at := rf.off + int64(rf.ln) - crcLen - 1
			var c [1]byte
			if _, err := f.ReadAt(c[:], at); err != nil {
				t.Fatal(err)
			}
			c[0] ^= 0x20
			if _, err := f.WriteAt(c[:], at); err != nil {
				t.Fatal(err)
			}
			if err := disk.Scan("", func(string, []byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Errorf("Scan over a flipped byte: %v, want a checksum mismatch", err)
			}
		})
	}
}

// fillInterleaved opens a Disk over a read-counting file system and
// stores n keys in shards interleaved batches of valueBytes values.
func fillInterleaved(tb testing.TB, n, shards, valueBytes int) (*Disk, *readCountFS, []string) {
	tb.Helper()
	fs := &readCountFS{}
	d, err := openDisk(tb.TempDir(), fs)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	value := make([]byte, valueBytes)
	for _, b := range interleavedShards(rand.New(rand.NewSource(1)), n, shards, func() []byte { return value }) {
		if err := d.Batch(b); err != nil {
			tb.Fatal(err)
		}
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = interleavedKey(i)
	}
	return d, fs, keys
}

// TestScanReadsPerShardRun counts the ReadAts a full Scan makes over S
// interleaved shards: a chunk's records are read in one run per shard
// they come from, so at most S reads per chunk, however their keys
// interleave.
func TestScanReadsPerShardRun(t *testing.T) {
	for _, shards := range []int{1, 3, 20} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 3000
			d, fs, keys := fillInterleaved(t, n, shards, 150)
			visited := 0
			before := fs.reads.Load()
			if err := d.Scan("w/", func(string, []byte) error { visited++; return nil }); err != nil || visited != n {
				t.Fatalf("Scan visited %d of %d keys: %v", visited, n, err)
			}
			reads, chunks := fs.reads.Load()-before, chunksOf(d, keys)
			if reads > int64(shards*chunks) {
				t.Errorf("%d ReadAts for %d chunks of %d shards (%.2f per record), want at most %d",
					reads, chunks, shards, float64(reads)/n, shards*chunks)
			}
		})
	}
}

// BenchmarkDiskScanInterleaved times a full Scan of 20 000 records
// stored as S interleaved shards, a chunk reading in one run per shard
// it draws from. At shards=1000 a chunk of ~120 records draws from
// nearly as many shards, so it reads about one record per ReadAt, and
// the grouping's own work per record must not show.
func BenchmarkDiskScanInterleaved(b *testing.B) {
	const n = 20_000
	for _, shards := range []int{1, 3, 20, 1000} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d, fs, _ := fillInterleaved(b, n, shards, 120)
			visit := func(string, []byte) error { return nil }
			if err := d.Scan("w/", visit); err != nil { // flush, merge the index
				b.Fatal(err)
			}
			before := fs.reads.Load()
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if err := d.Scan("w/", visit); err != nil {
					b.Fatal(err)
				}
			}
			records := float64(b.N) * n
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/records, "ns/record")
			b.ReportMetric(float64(fs.reads.Load()-before)/records, "reads/record")
		})
	}
}
