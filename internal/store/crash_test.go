package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// span is one record as found in a segment file.
type span struct {
	key, value string
	off, end   int64
}

// readSegment splits a segment file into its records, failing on any
// byte that is not part of a good record.
func readSegment(t *testing.T, path string) []span {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []span
	for off := int64(0); off < int64(len(b)); {
		n, ok := recordLen(b[off:], int64(len(b))-off)
		if !ok {
			t.Fatalf("%s: no record at offset %d", path, off)
		}
		k, v, err := decodeRecord(b[off : off+n])
		if err != nil {
			t.Fatalf("%s @%d: %v", path, off, err)
		}
		out = append(out, span{key: string(k), value: string(v), off: off, end: off + n})
		off += n
	}
	return out
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// twoSegmentStore writes a small store into dir that spans exactly two
// segments, the active one ending in an overwrite of a key whose older
// record is sealed, and returns both segments' records.
func twoSegmentStore(t *testing.T, dir string) (sealed, active []span) {
	t.Helper()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SegmentBytes = 160
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("c/1/w/0000/d/k%d", i), []byte(fmt.Sprintf("value %d %s", i, strings.Repeat("x", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("c/1/w/0000/d/k1", []byte("value 1, overwritten")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 2 {
		t.Fatalf("store spans %d segments, want 2", s.Segments())
	}
	sealed = readSegment(t, filepath.Join(dir, "seg-000001.log"))
	active = readSegment(t, filepath.Join(dir, "seg-000002.log"))
	if len(sealed) < 2 || len(active) < 2 {
		t.Fatalf("segments hold %d and %d records, want at least 2 each", len(sealed), len(active))
	}
	return sealed, active
}

// TestDiskTruncateActiveEveryOffset is the append path's crash points:
// a crash leaves the active segment cut at some byte, so cut it at each
// byte of its last two records. Exactly the records wholly before the
// cut must be visible, and the store must take the next write cleanly.
func TestDiskTruncateActiveEveryOffset(t *testing.T) {
	src := t.TempDir()
	sealed, active := twoSegmentStore(t, src)
	for cut := active[len(active)-2].off; cut < active[len(active)-1].end; cut++ {
		dir := t.TempDir()
		copyDir(t, src, dir)
		if err := os.Truncate(filepath.Join(dir, "seg-000002.log"), cut); err != nil {
			t.Fatal(err)
		}
		want := model{}
		for _, r := range sealed {
			want[r.key] = r.value
		}
		for _, r := range active {
			if r.end <= cut {
				want[r.key] = r.value
			}
		}
		s, err := OpenDisk(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		compareScans(t, want, "", s)
		if err := s.Put("after", []byte("crash")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		want["after"] = "crash"
		s, err = OpenDisk(dir)
		if err != nil {
			t.Fatalf("cut at %d, then a Put: %v", cut, err)
		}
		compareScans(t, want, "", s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiskSealedByteFlipDetected damages one record of a sealed segment
// at each of its bytes, three ways each. The damage must surface as an
// error from OpenDisk or Get; no read may return a wrong value.
func TestDiskSealedByteFlipDetected(t *testing.T) {
	src := t.TempDir()
	sealed, active := twoSegmentStore(t, src)
	want := model{}
	for _, r := range append(sealed, active...) {
		want[r.key] = r.value
	}
	orig, err := os.ReadFile(filepath.Join(src, "seg-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	victim := sealed[1]
	for off := victim.off; off < victim.end; off++ {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			dir := t.TempDir()
			copyDir(t, src, dir)
			damaged := append([]byte(nil), orig...)
			damaged[off] ^= mask
			if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := OpenDisk(dir)
			if err != nil {
				continue
			}
			detected := false
			for k, v := range want {
				got, ok, err := s.Get(k)
				switch {
				case err != nil:
					detected = true
				case !ok || string(got) != v:
					t.Errorf("byte %d ^ %#x: Get(%q) = %q, %v; want %q", off, mask, k, got, ok, v)
				}
			}
			if err := s.Scan("", func(k string, v []byte) error {
				if w, ok := want[k]; !ok || string(v) != w {
					t.Errorf("byte %d ^ %#x: Scan yields %q = %q", off, mask, k, v)
				}
				return nil
			}); err != nil {
				detected = true
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if !detected {
				t.Errorf("byte %d ^ %#x of a sealed record went unnoticed", off, mask)
			}
		}
	}
}
