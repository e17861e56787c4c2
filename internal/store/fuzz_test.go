package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzDiskReplay feeds arbitrary bytes to OpenDisk as a sealed segment
// and as the active one. Open must not panic, must not allocate in
// proportion to lengths the bytes claim rather than to the bytes
// themselves, and when it opens, every indexed key must be readable.
func FuzzDiskReplay(f *testing.F) {
	var valid []byte
	for _, kv := range [][2]string{{"a", "1"}, {"b", ""}, {"c/1/w", "three"}} {
		valid = appendRecord(valid, kv[0], []byte(kv[1]))
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	oversized := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<40)
	f.Add(append(oversized, "kv\x00\x00\x00\x00"...))

	f.Fuzz(func(t *testing.T, seg []byte) {
		for _, sealed := range []bool{true, false} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			if sealed {
				if err := os.WriteFile(filepath.Join(dir, "seg-000002.log"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := OpenDisk(dir)
			runtime.ReadMemStats(&after)
			// The fixed part is the replay and write buffers; the index
			// costs well under 32 B per segment byte even when every
			// record is a distinct minimal one.
			if grown, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(seg)+256<<10); grown > limit {
				t.Errorf("sealed=%v: OpenDisk of a %d-byte segment allocated %d bytes, limit %d", sealed, len(seg), grown, limit)
			}
			if err != nil {
				continue
			}
			if err := s.Scan("", func(string, []byte) error { return nil }); err != nil {
				t.Errorf("sealed=%v: an indexed key is unreadable: %v", sealed, err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
