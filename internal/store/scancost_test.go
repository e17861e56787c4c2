package store

import (
	"fmt"
	"testing"
)

// fillForScan loads n keys of which exactly hits sit under "hit/", the
// rest under prefixes sorting on both sides of it, and runs one scan so
// the index has merged before anything is measured.
func fillForScan(tb testing.TB, s Store, n, hits int) {
	tb.Helper()
	batch := make([]Entry, 0, n)
	for i := 0; i < hits; i++ {
		batch = append(batch, Entry{Key: fmt.Sprintf("hit/%04d", i), Value: []byte("v")})
	}
	for i := 0; len(batch) < n; i++ {
		batch = append(batch, Entry{Key: fmt.Sprintf("%c/%07d", "fz"[i%2], i), Value: []byte("v")})
	}
	if err := s.Batch(batch); err != nil {
		tb.Fatal(err)
	}
	if got, err := Len(s, "hit/"); err != nil || got != hits {
		tb.Fatalf("Len(hit/) = %d, %v; want %d", got, err, hits)
	}
}

// benchScanPrefix times a 50-key prefix scan; the sizes differ 100x, so
// a Scan that walks the index again shows as ns/op growing with them.
func benchScanPrefix(b *testing.B, open func(testing.TB) Store) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			s := open(b)
			fillForScan(b, s, n, 50)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, err := Len(s, "hit/"); err != nil || got != 50 {
					b.Fatalf("Len = %d, %v", got, err)
				}
			}
		})
	}
}

func openMem(testing.TB) Store { return NewMem() }

func openTempDisk(tb testing.TB) Store {
	s, err := OpenDisk(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

func BenchmarkMemScanPrefix(b *testing.B)  { benchScanPrefix(b, openMem) }
func BenchmarkDiskScanPrefix(b *testing.B) { benchScanPrefix(b, openTempDisk) }

// TestScanNoMatchAllocatesNothing pins the cost Scan had before the
// ordered index: a slice sized to the whole key set per call, however
// few keys matched.
func TestScanNoMatchAllocatesNothing(t *testing.T) {
	for name, open := range map[string]func(testing.TB) Store{"mem": openMem, "disk": openTempDisk} {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			fillForScan(t, s, 50_000, 50)
			visit := func(string, []byte) error { return nil }
			if allocs := testing.AllocsPerRun(100, func() {
				if err := s.Scan("g/", visit); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("no-match Scan over 50k keys: %v allocations per call, want 0", allocs)
			}
		})
	}
}
