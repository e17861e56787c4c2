package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/store"
)

// commitWorld is a three-shard slice of week 0 and its scanner, small
// enough to resume once per byte of a shard's batch.
func commitWorld(t *testing.T, shardSize int) (func(s store.Store, stopAfter int) error, []string) {
	t.Helper()
	src, scan, _ := snapshotSource(testWorld, weekSnapshot(0))
	var names []string
	if err := src(func(d string) error {
		names = append(names, d)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	names = names[:3*shardSize]
	run := func(s store.Store, stopAfter int) error {
		eng := &Engine{
			Store: s, Runner: &scanner.Runner{Workers: 2, Scan: scan},
			ID: "commit", ShardSize: shardSize, StopAfterShards: stopAfter,
		}
		return eng.RunWeek(context.Background(), 0, SliceSource(names))
	}
	return run, names
}

func snapshotBytes(t *testing.T, s store.Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteSnapshot(&b, s, "commit", 0); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestShardCrashEveryOffset cuts the active segment at every byte of one
// shard's batch — its results, then its checkpoint — which is every
// state a crash before that shard's one Sync can leave. Each cut store
// must reopen, resume the week, and export the snapshot of an
// uninterrupted run byte for byte: no cut may keep the checkpoint
// without every result it vouches for.
func TestShardCrashEveryOffset(t *testing.T) {
	run, _ := commitWorld(t, 2)
	ref := store.NewMem()
	if err := run(ref, 0); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, ref)

	// Shard 0, then shard 1 in a second process: the bytes the second
	// run appends are exactly shard 1's batch.
	base := t.TempDir()
	seg := filepath.Join(base, "seg-000001.log")
	var bounds [2]int64
	for i := range bounds {
		s, err := store.OpenDisk(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(s, 1); err != ErrStopped {
			t.Fatalf("run %d: %v, want ErrStopped", i, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		bounds[i] = fi.Size()
	}
	from, to := bounds[0], bounds[1]
	if to <= from {
		t.Fatalf("shard 1 appended nothing (%d → %d bytes)", from, to)
	}
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "cut")
	for cut := from; cut < to; cut++ {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if err := run(s, 0); err != nil {
			t.Fatalf("cut at %d: resume: %v", cut, err)
		}
		if got := snapshotBytes(t, s); !bytes.Equal(got, want) {
			t.Fatalf("cut at %d of [%d, %d): resumed snapshot differs (%d vs %d bytes)", cut, from, to, len(got), len(want))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// countingStore counts the engine's write calls.
type countingStore struct {
	store.Store
	puts, batches, syncs int
}

func (c *countingStore) Put(key string, value []byte) error {
	c.puts++
	return c.Store.Put(key, value)
}

func (c *countingStore) Batch(entries []store.Entry) error {
	c.batches++
	return c.Store.Batch(entries)
}

func (c *countingStore) Sync() error {
	c.syncs++
	return c.Store.Sync()
}

// TestOneSyncPerShard pins the commit's cost: a scanned shard is one
// Batch and one Sync, a skipped shard writes nothing, and the week's
// metadata is one Put and one Sync at the end.
func TestOneSyncPerShard(t *testing.T) {
	run, _ := commitWorld(t, 4)
	cs := &countingStore{Store: store.NewMem()}
	if err := run(cs, 2); err != ErrStopped {
		t.Fatalf("first run: %v, want ErrStopped", err)
	}
	if cs.puts != 0 || cs.batches != 2 || cs.syncs != 2 {
		t.Errorf("two scanned shards: %d puts, %d batches, %d syncs; want 0, 2, 2", cs.puts, cs.batches, cs.syncs)
	}
	*cs = countingStore{Store: cs.Store}
	if err := run(cs, 0); err != nil {
		t.Fatal(err)
	}
	if cs.puts != 1 || cs.batches != 1 || cs.syncs != 2 {
		t.Errorf("resume (one shard scanned, then the week's metadata): %d puts, %d batches, %d syncs; want 1, 1, 2",
			cs.puts, cs.batches, cs.syncs)
	}
}
