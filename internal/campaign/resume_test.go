package campaign

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/store"
)

// TestCrashResumeByteIdentical is the determinism proof, at every
// commit boundary: a two-week campaign of three shards a week is
// crashed at each of its store writes and syncs, and inside each shard's
// batch after each entry; the crash image is reopened and both weeks
// resumed. Every resumed store must export week snapshots and a diff
// byte-identical to an uninterrupted run.
func TestCrashResumeByteIdentical(t *testing.T) {
	run := commitWorld(t, 4)
	ref := store.NewMem()
	if err := run(ref, 2); err != nil {
		t.Fatal(err)
	}
	refDiff, err := ComputeDiff(ref, "commit", 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := crashEvery(t, func(s store.Store) error { return run(s, 2) }, func(s store.Store, at, entry int) {
		if err := run(s, 2); err != nil {
			t.Fatalf("crash at call %d entry %d: resume: %v", at, entry, err)
		}
		for week := 0; week <= 1; week++ {
			if a, b := snapshotBytes(t, ref, week), snapshotBytes(t, s, week); len(a) == 0 || !bytes.Equal(a, b) {
				t.Fatalf("crash at call %d entry %d: week %d snapshot differs (%d vs %d bytes)", at, entry, week, len(a), len(b))
			}
		}
		d, err := ComputeDiff(s, "commit", 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d, refDiff) {
			t.Fatalf("crash at call %d entry %d: diff diverges:\nref:   %+v\ncrash: %+v", at, entry, refDiff, d)
		}
	})
	t.Logf("%d crash points", points)
}

// countingWriter counts the Write calls that reach a buffer.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestSnapshotBackendIndependent pins the other half of determinism:
// the exported snapshot does not depend on which backend stored it.
// The export reaches its writer in streamBufBytes pieces, not a write
// or two per record.
func TestSnapshotBackendIndependent(t *testing.T) {
	mem := store.NewMem()
	disk, err := store.OpenDisk(filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, s := range []store.Store{mem, disk} {
		if _, err := runTestWeek(t, s, "x", 0, 64); err != nil {
			t.Fatal(err)
		}
	}
	var a, b countingWriter
	if err := WriteSnapshot(&a, mem, "x", 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, disk, "x", 0); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots differ across backends (%d vs %d bytes)", a.Len(), b.Len())
	}
	if want := (a.Len() + streamBufBytes - 1) / streamBufBytes; a.writes != want || b.writes != want {
		t.Errorf("a %d-byte snapshot took %d and %d writes, want %d", a.Len(), a.writes, b.writes, want)
	}
}

// TestExportIndependentOfShardOrder runs the same two weeks over one
// domain list sorted and shuffled: the shuffled list's shards interleave
// in key order, so the store reads each chunk of a week from many
// shards at once. The week exports, their aggregates and their diff
// must not tell the two apart, while the logs they were read from do.
func TestExportIndependentOfShardOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var exports [2][2][]byte
	var sums [2][2]WeekSummary
	var diffs [2]Diff
	var logs [2][]byte
	for i, shuffled := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "s")
		disk, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		for week := 0; week < 2; week++ {
			src, scan, _ := snapshotSource(testWorld, weekSnapshot(week))
			var names []string
			if err := src(func(d string) error { names = append(names, d); return nil }); err != nil {
				t.Fatal(err)
			}
			if len(names) < 3*64 {
				t.Fatalf("week %d has %d domains; the case needs at least three shards", week, len(names))
			}
			if shuffled {
				rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
			}
			eng := &Engine{Store: disk, Runner: &scanner.Runner{Workers: 4, Scan: scan}, ID: "order", ShardSize: 64}
			if err := eng.RunWeek(context.Background(), week, SliceSource(names)); err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := WriteSnapshot(&b, disk, "order", week); err != nil {
				t.Fatal(err)
			}
			exports[i][week] = b.Bytes()
			if sums[i][week], err = Aggregate(disk, "order", week); err != nil {
				t.Fatal(err)
			}
		}
		if diffs[i], err = ComputeDiff(disk, "order", 0, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := disk.Close(); err != nil {
			t.Fatal(err)
		}
		if logs[i], err = os.ReadFile(filepath.Join(dir, "seg-000001.log")); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(logs[0], logs[1]) {
		t.Fatal("the sorted and shuffled runs wrote the same log; the case needs their shards to interleave")
	}
	for week := 0; week < 2; week++ {
		if a, b := exports[0][week], exports[1][week]; len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("week %d export differs with the list shuffled (%d vs %d bytes)", week, len(a), len(b))
		}
		if !reflect.DeepEqual(sums[0][week], sums[1][week]) {
			t.Errorf("week %d Aggregate differs with the list shuffled:\n%+v\n%+v", week, sums[0][week], sums[1][week])
		}
	}
	if !reflect.DeepEqual(diffs[0], diffs[1]) {
		t.Errorf("diff differs with the list shuffled:\n%+v\n%+v", diffs[0], diffs[1])
	}
}

// TestCanceledRunStoresNothing: a context-canceled shard must not leak
// partial verdicts into the store.
func TestCanceledRunStoresNothing(t *testing.T) {
	s := store.NewMem()
	src, scan, _ := snapshotSource(testWorld, weekSnapshot(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := &Engine{
		Store:  s,
		Runner: &scanner.Runner{Workers: 2, Scan: scan},
		ID:     "gone", ShardSize: 16,
	}
	if err := eng.RunWeek(ctx, 0, src); err == nil {
		t.Fatal("canceled run reported success")
	}
	if n, err := store.Len(s, weekPrefix("gone", 0)); err != nil || n != 0 {
		t.Fatalf("canceled run stored %d records (err=%v), want 0", n, err)
	}
}
