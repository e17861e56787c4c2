package store

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// model is the reference the backends are compared with: a plain map,
// and for Scan the collect-HasPrefix-sort loop the ordered index
// replaced. Agreement between Mem and Disk alone would pass a bug in
// the index they share.
type model map[string]string

func (m model) scan(prefix string) []string {
	var keys []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k + "\x00" + m[k]
	}
	return out
}

// nestedKeys put a key that is a proper prefix of others into the
// random key space (the campaign layout's c/1/w vs c/1/w/0000/d/x).
var nestedKeys = []string{"c/1", "c/1/w", "c/1/w/0000/d/x", "c/1/w/0000/d/y", "c/1/w0"}

// edgePrefixes are the Scan arguments a range seek can get wrong: the
// empty prefix, a prefix equal to a whole key, a key that prefixes
// other keys, a prefix one byte past a key, prefixes ending in 0xff
// (no successor by incrementing the last byte), and prefixes sorting
// after every key.
var edgePrefixes = []string{
	"", "a", "a/", "b/0", "a/059", "c/1", "c/1/w", "c/1/w/", "c/1/w/0000/d/x", "c/1/w/0000/d/x/",
	"a/\xff", "c/1/w\xff", "\xff", "c/2", "d", "zzzz",
}

// TestMemDiskEquivalence drives Mem, Disk and the model through the
// same random operation sequence — overwrites of existing keys, Batches
// that interleave new and existing keys, Close/reopen of the disk
// backend mid-sequence — and asserts every observable (Get results,
// Scans over the edge prefixes) agrees with the model at each
// checkpoint. This is the property that lets the campaign layer treat
// the two backends as interchangeable.
func TestMemDiskEquivalence(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			ref := model{}
			mem := NewMem()
			disk, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			disk.SegmentBytes = 1 << 10 // exercise rotation constantly

			key := func() string {
				if rng.Intn(8) == 0 {
					return nestedKeys[rng.Intn(len(nestedKeys))]
				}
				return fmt.Sprintf("%c/%03d", 'a'+rng.Intn(3), rng.Intn(60))
			}
			// oldKey picks a key already written, so overwrites do not
			// depend on the random key space colliding.
			oldKey := func() string {
				if len(ref) == 0 {
					return key()
				}
				keys := ref.scan("")
				k, _, _ := strings.Cut(keys[rng.Intn(len(keys))], "\x00")
				return k
			}
			value := func() []byte {
				return []byte(strings.Repeat(string(rune('A'+rng.Intn(26))), rng.Intn(40)))
			}
			write := func(batch []Entry) {
				t.Helper()
				for _, e := range batch {
					ref[e.Key] = string(e.Value)
				}
				if len(batch) == 1 {
					if err := mem.Put(batch[0].Key, batch[0].Value); err != nil {
						t.Fatal(err)
					}
					if err := disk.Put(batch[0].Key, batch[0].Value); err != nil {
						t.Fatal(err)
					}
					return
				}
				if err := mem.Batch(batch); err != nil {
					t.Fatal(err)
				}
				if err := disk.Batch(batch); err != nil {
					t.Fatal(err)
				}
			}

			const ops = 600
			for i := 0; i < ops; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // Put, new or colliding key
					write([]Entry{{Key: key(), Value: value()}})
				case 4: // Put over a key known to exist
					write([]Entry{{Key: oldKey(), Value: value()}})
				case 5, 6: // Batch interleaving existing and random keys
					batch := make([]Entry, 2+rng.Intn(8))
					for j := range batch {
						batch[j] = Entry{Key: key(), Value: value()}
						if j%2 == 0 {
							batch[j].Key = oldKey()
						}
					}
					write(batch)
				case 7: // Get
					k := key()
					want, wok := ref[k]
					mv, mok, merr := mem.Get(k)
					dv, dok, derr := disk.Get(k)
					if merr != nil || derr != nil || mok != wok || dok != wok || string(mv) != want || string(dv) != want {
						t.Fatalf("op %d: Get(%q) diverged: model=(%q,%v) mem=(%q,%v,%v) disk=(%q,%v,%v)",
							i, k, want, wok, mv, mok, merr, dv, dok, derr)
					}
				case 8: // reopen disk mid-sequence
					if err := disk.Close(); err != nil {
						t.Fatal(err)
					}
					disk, err = OpenDisk(dir)
					if err != nil {
						t.Fatal(err)
					}
					disk.SegmentBytes = 1 << 10
				case 9: // compare one scan
					compareScans(t, ref, edgePrefixes[rng.Intn(len(edgePrefixes))], mem, disk)
				}
			}
			for _, p := range edgePrefixes {
				compareScans(t, ref, p, mem, disk)
			}

			// One final reopen: durability of the whole history.
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}
			disk, err = OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			for _, p := range edgePrefixes {
				compareScans(t, ref, p, disk)
			}
		})
	}
}

// compareScans asserts each backend yields the model's ordered (key,
// value) stream for a prefix.
func compareScans(t *testing.T, ref model, prefix string, backends ...Store) {
	t.Helper()
	want := ref.scan(prefix)
	for _, s := range backends {
		var got []string
		if err := s.Scan(prefix, func(k string, v []byte) error {
			got = append(got, k+"\x00"+string(v))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%T.Scan(%q): %d items, model has %d", s, prefix, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T.Scan(%q) item %d diverged:\n  model: %q\n  got:   %q", s, prefix, i, want[i], got[i])
			}
		}
	}
}

// TestScanHighBytePrefix covers keys that themselves hold 0xff bytes,
// where "the next prefix" cannot be had by incrementing the last byte.
// Disk records keep keys as raw bytes, so such keys also survive a
// reopen byte-exactly.
func TestScanHighBytePrefix(t *testing.T) {
	ref := model{}
	mem := NewMem()
	dir := t.TempDir()
	disk, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"k", "k\xfe", "k\xff", "k\xff\xff", "k\xff\xff0", "k\xff/1", "l", "\xff", "\xff\xff"} {
		v := fmt.Sprint(i)
		ref[k] = v
		if err := mem.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := disk.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	if disk, err = OpenDisk(dir); err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, p := range []string{"", "k", "k\xff", "k\xff\xff", "k\xff\xff\xff", "\xff", "\xff\xff", "\xff\xff\xff", "l", "m"} {
		compareScans(t, ref, p, mem, disk)
	}
}

// TestScanWhileWriting runs writers that Put and Batch new keys against
// readers that Scan (meaningful under -race): every scan must be
// strictly ascending — so duplicate-free — and hold every key whose
// write returned before the scan began.
func TestScanWhileWriting(t *testing.T) {
	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for name, s := range map[string]Store{"mem": NewMem(), "disk": disk} {
		s := s
		t.Run(name, func(t *testing.T) {
			const writers, perWriter, readers = 3, 300, 2
			key := func(w, i int) string { return fmt.Sprintf("w%d/%05d", w, i) }
			var written [writers]atomic.Int64 // keys [0, n) of writer w are in the store
			var writing sync.WaitGroup
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					for i := 0; i < perWriter; {
						n := 1
						var err error
						if i%4 == 3 && i+3 <= perWriter {
							n = 3
							err = s.Batch([]Entry{{Key: key(w, i)}, {Key: key(w, i+1)}, {Key: key(w, i+2)}})
						} else {
							err = s.Put(key(w, i), []byte("v"))
						}
						if err != nil {
							t.Error(err)
							return
						}
						i += n
						written[w].Store(int64(i))
					}
				}(w)
			}
			stop := make(chan struct{})
			check := func() {
				var before [writers]int64
				for w := range before {
					before[w] = written[w].Load()
				}
				seen := make(map[string]bool)
				prev := ""
				if err := s.Scan("w", func(k string, _ []byte) error {
					if k <= prev {
						t.Errorf("scan not strictly ascending: %q after %q", k, prev)
					}
					prev = k
					seen[k] = true
					return nil
				}); err != nil {
					t.Error(err)
				}
				for w, n := range before {
					for i := 0; i < int(n); i++ {
						if !seen[key(w, i)] {
							t.Errorf("scan misses %q, written before it began", key(w, i))
							return
						}
					}
				}
			}
			var reading sync.WaitGroup
			for r := 0; r < readers; r++ {
				reading.Add(1)
				go func() {
					defer reading.Done()
					for {
						select {
						case <-stop:
							return
						default:
							check()
						}
					}
				}()
			}
			writing.Wait()
			close(stop)
			reading.Wait()
			check()
			if n, err := Len(s, "w"); err != nil || n != writers*perWriter {
				t.Fatalf("Len = %d, %v; want %d", n, err, writers*perWriter)
			}
		})
	}
}

// TestScanChunks pins Disk's chunked Scan to the model and Mem where
// reading records a chunk at a time, one ReadAt per run of a chunk's
// records that lie back to back in a segment, can go wrong: file order
// unlike key order beside a run written in key order (as the campaign
// writes a shard; TestScanInterleavedShards interleaves many), overwrites
// whose newest record lies far from its neighbours, chunks spanning
// segment rotations, records still in the write buffer, and a value
// larger than a chunk. A Scan nested in the callback, as the service's
// TLSRPT join makes one, must not disturb the outer Scan's values. Then
// a damaged record and a misdirected ref must fail the Scan.
func TestScanChunks(t *testing.T) {
	ref, mem := model{}, NewMem()
	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	disk.SegmentBytes = 4 << 10 // a chunk spans several rotations
	rng := rand.New(rand.NewSource(1))
	key := func(i int) string { return fmt.Sprintf("k/%03d", i) }
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
	for _, i := range rng.Perm(150) { // file order unlike key order
		write(Entry{Key: key(i), Value: value(50 + rng.Intn(350))})
	}
	var run []Entry // a shard: one batch in key order
	for i := 150; i < 300; i++ {
		run = append(run, Entry{Key: key(i), Value: value(50 + rng.Intn(350))})
	}
	write(run...)
	write(Entry{Key: key(77), Value: value(scanChunkBytes + 100)})
	for _, i := range []int{3, 151, 152, 298} { // newest records far from their neighbours
		write(Entry{Key: key(i), Value: value(60)})
	}
	if disk.w.Buffered() == 0 {
		t.Fatal("the last writes were flushed; the case needs them in the write buffer")
	}

	for _, p := range []string{"", "k/", "k/0", "k/07", "k/077", "k/15", "k/2", "k/29", "k/3"} {
		compareScans(t, ref, p, mem, disk)
	}
	for _, s := range []Store{mem, disk} {
		want, i := ref.scan("k/"), 0
		if err := s.Scan("k/", func(k string, v []byte) error {
			if i%37 == 0 {
				compareScans(t, ref, k[:4], s)
			}
			if got := k + "\x00" + string(v); i >= len(want) || got != want[i] {
				t.Fatalf("%T.Scan item %d after a nested Scan = %.40q, want %.40q", s, i, got, want[min(i, len(want)-1)])
			}
			i++
			return nil
		}); err != nil || i != len(want) {
			t.Fatalf("%T.Scan with nested Scans: %d of %d items, %v", s, i, len(want), err)
		}
	}

	// A ref that points at another key's intact record must fail the
	// key check.
	a, b := disk.index[key(160)], disk.index[key(161)]
	disk.refs[a], disk.refs[b] = disk.refs[b], disk.refs[a]
	if err := disk.Scan("k/16", func(string, []byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "holds key") {
		t.Errorf("Scan over swapped refs: %v, want a key mismatch", err)
	}
	disk.refs[a], disk.refs[b] = disk.refs[b], disk.refs[a]

	// A flipped value byte in the middle of a run must fail the checksum.
	if err := disk.Sync(); err != nil {
		t.Fatal(err)
	}
	rf := disk.refs[disk.index[key(200)]]
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
	if err := disk.Scan("k/", func(string, []byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("Scan over a flipped byte: %v, want a checksum mismatch", err)
	}
}
