package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/netsecurelab/mtasts/internal/simnet"
)

// TestSnapshotFilesDeterministic writes one snapshot of a small world
// several times, each into its own directory, and requires every release
// file (dns.tsv, zone.txt, scan.tsv, summary.tsv, the policy bodies) to
// come out byte for byte the same each time.
func TestSnapshotFilesDeterministic(t *testing.T) {
	world := simnet.Generate(simnet.Config{Seed: 1, Scale: 0.02})
	const snapshot = simnet.Months - 1
	dirs := make([]string, 4)
	for i := range dirs {
		dirs[i] = t.TempDir()
		if err := writeSnapshot(world, snapshot, dirs[i]); err != nil {
			t.Fatal(err)
		}
	}
	first := readTree(t, dirs[0])
	if len(first) < 4 {
		t.Fatalf("snapshot wrote %d files, want at least dns, zone, scan and summary", len(first))
	}
	for _, dir := range dirs[1:] {
		again := readTree(t, dir)
		if len(again) != len(first) {
			t.Errorf("second write holds %d files, first %d", len(again), len(first))
		}
		for name, want := range first {
			if got, ok := again[name]; !ok || !bytes.Equal(got, want) {
				t.Errorf("%s differs between two writes of one snapshot:\n%s\n--- and ---\n%s", name, want, got)
			}
		}
	}
}

// readTree maps each regular file under root, by its relative path, to
// its contents.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
