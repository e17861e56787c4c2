package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The fixture in testdata/legacy was written by the JSONL store before
// the record format replaced it: two segments holding an overwritten
// key, an HTML-escaped key, a non-ASCII key, a 0..255 binary value and
// an empty value, the second ending in a torn line. want.json holds
// what a reader must see.
const legacyFixture = "testdata/legacy"

var legacySegments = []string{"seg-000001.jsonl", "seg-000002.jsonl"}

// legacyWant loads the fixture's expected contents.
func legacyWant(t *testing.T) model {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(legacyFixture, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string][]byte
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	want := model{}
	for k, v := range m {
		want[k] = string(v)
	}
	return want
}

// putLegacy copies the named fixture segments into dir.
func putLegacy(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(legacyFixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkMigrated opens dir and requires the fixture's contents through
// Get and Scan, and no legacy segment left behind.
func checkMigrated(t *testing.T, dir string, want model) {
	t.Helper()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if got, ok, err := s.Get(k); err != nil || !ok || string(got) != v {
			t.Errorf("Get(%q) = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
	compareScans(t, want, "", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.jsonl")); len(left) > 0 {
		t.Errorf("legacy segments left after migration: %v", left)
	}
}

func TestDiskMigratesLegacySegments(t *testing.T) {
	want := legacyWant(t)
	dir := t.TempDir()
	putLegacy(t, dir, legacySegments...)
	checkMigrated(t, dir, want)
	checkMigrated(t, dir, want) // nothing left to migrate; same contents
}

// TestDiskLegacyMigrationCrash replays the states a crash during
// migration can leave: the new segment cut anywhere with every legacy
// segment still present, and the whole new segment with some of the
// legacy segments already deleted.
func TestDiskLegacyMigrationCrash(t *testing.T) {
	want := legacyWant(t)
	done := t.TempDir()
	putLegacy(t, done, legacySegments...)
	checkMigrated(t, done, want)
	seg, err := os.ReadFile(filepath.Join(done, "seg-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	var cuts []int64
	for _, r := range readSegment(t, filepath.Join(done, "seg-000001.log")) {
		cuts = append(cuts, r.off, r.off+1, r.end-1)
	}
	for _, cut := range append(cuts, int64(len(seg))) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		putLegacy(t, dir, legacySegments...)
		checkMigrated(t, dir, want)
	}
	// Deletes start only once the whole copy is durable.
	for _, kept := range legacySegments {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		putLegacy(t, dir, kept)
		checkMigrated(t, dir, want)
		if fi, err := os.Stat(filepath.Join(dir, "seg-000001.log")); err != nil || fi.Size() != int64(len(seg)) {
			t.Errorf("with only %s left: new segment %v, %v; want %d bytes, nothing copied twice", kept, fi, err, len(seg))
		}
	}
}
