package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/store"
)

// errCrashed is what every mutating call returns once crashStore has
// crashed.
var errCrashed = errors.New("crashed")

// crashStore wraps a store, counts its mutating calls (Put, Batch,
// Sync) and, when at > 0, crashes at call at: a Batch there first
// writes its first entry entries, the store's write buffer goes out to
// the OS (as it would have had it filled up), the directory dir is
// copied as the OS holds it at that instant, and that call and every
// later one fail with errCrashed.
type crashStore struct {
	store.Store
	t         *testing.T
	dir       string
	at, entry int

	sizes                []int // per mutating call: the Batch's length, or 0
	puts, batches, syncs int
	image                string // the copy of dir, once crashed
}

// step counts one call of a Batch of n entries (0 for Put and Sync) and
// writes what reaches the store before a crash there.
func (c *crashStore) step(n int, write func(n int) error) error {
	if c.image != "" {
		return errCrashed
	}
	c.sizes = append(c.sizes, n)
	if len(c.sizes) != c.at {
		return write(n)
	}
	if n > 0 {
		if err := write(c.entry); err != nil {
			return err
		}
	}
	if err := c.Store.Sync(); err != nil {
		return err
	}
	c.image = c.t.TempDir()
	copyDir(c.t, c.dir, c.image)
	return errCrashed
}

func (c *crashStore) Put(key string, value []byte) error {
	return c.step(0, func(int) error { c.puts++; return c.Store.Put(key, value) })
}

func (c *crashStore) Batch(entries []store.Entry) error {
	return c.step(len(entries), func(n int) error { c.batches++; return c.Store.Batch(entries[:n]) })
}

func (c *crashStore) Sync() error {
	return c.step(0, func(int) error { c.syncs++; return c.Store.Sync() })
}

// copyDir copies the files of src into dst.
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

// crashAt runs run on a new Disk wrapped to crash at call at, after
// entry entries if that call is a Batch, and returns the directory
// holding the crash image. The run must reach the crash.
func crashAt(t *testing.T, run func(store.Store) error, at, entry int) string {
	t.Helper()
	dir := t.TempDir()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs := &crashStore{Store: d, t: t, dir: dir, at: at, entry: entry}
	if err := run(cs); !errors.Is(err, errCrashed) {
		t.Fatalf("crash at call %d entry %d: run returned %v", at, entry, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return cs.image
}

// crashEvery counts run's mutating calls on a Mem store, then crashes
// it at each one, and inside each Batch after each entry, handing every
// reopened image to resume. It returns the number of crash points.
func crashEvery(t *testing.T, run func(store.Store) error, resume func(s store.Store, at, entry int)) int {
	t.Helper()
	count := &crashStore{Store: store.NewMem(), t: t}
	if err := run(count); err != nil {
		t.Fatal(err)
	}
	points := 0
	for i, n := range count.sizes {
		for entry := 0; entry < max(n, 1); entry++ {
			s, err := store.OpenDisk(crashAt(t, run, i+1, entry))
			if err != nil {
				t.Fatalf("crash at call %d entry %d: reopen: %v", i+1, entry, err)
			}
			resume(s, i+1, entry)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			points++
		}
	}
	return points
}

// commitWorld returns a run of the first weeks of a campaign of three
// shards a week, shardSize domains each, small enough to crash at every
// commit boundary and at every byte of a shard.
func commitWorld(t *testing.T, shardSize int) func(s store.Store, weeks int) error {
	t.Helper()
	type week struct {
		names []string
		scan  scanner.Scanner
	}
	var ws []week
	for w := 0; w < 2; w++ {
		src, scan, _ := snapshotSource(testWorld, weekSnapshot(w))
		var names []string
		if err := src(func(d string) error {
			names = append(names, d)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ws = append(ws, week{names[:3*shardSize], scan})
	}
	return func(s store.Store, weeks int) error {
		for w := 0; w < weeks; w++ {
			eng := &Engine{
				Store: s, Runner: &scanner.Runner{Workers: 2, Scan: ws[w].scan},
				ID: "commit", ShardSize: shardSize,
			}
			if err := eng.RunWeek(context.Background(), w, SliceSource(ws[w].names)); err != nil {
				return err
			}
		}
		return nil
	}
}

func snapshotBytes(t *testing.T, s store.Store, week int) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteSnapshot(&b, s, "commit", week); err != nil {
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
	run := commitWorld(t, 2)
	week0 := func(s store.Store) error { return run(s, 1) }
	ref := store.NewMem()
	if err := week0(ref); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, ref, 0)

	// Crashing at shard 1's Batch, then at shard 2's, leaves the store
	// just before and just after shard 1's commit: the bytes between are
	// exactly shard 1's batch.
	var segs [2][]byte
	for i, at := range []int{3, 5} {
		var err error
		if segs[i], err = os.ReadFile(filepath.Join(crashAt(t, week0, at, 0), "seg-000001.log")); err != nil {
			t.Fatal(err)
		}
	}
	from, to, full := int64(len(segs[0])), int64(len(segs[1])), segs[1]
	if to <= from {
		t.Fatalf("shard 1 appended nothing (%d → %d bytes)", from, to)
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
		if err := week0(s); err != nil {
			t.Fatalf("cut at %d: resume: %v", cut, err)
		}
		if got := snapshotBytes(t, s, 0); !bytes.Equal(got, want) {
			t.Fatalf("cut at %d of [%d, %d): resumed snapshot differs (%d vs %d bytes)", cut, from, to, len(got), len(want))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d cuts", to-from)
}

// TestOneSyncPerShard pins the commit's cost over a full two-week run:
// a scanned shard is one Batch and one Sync, each week's metadata one
// Put and one Sync; re-running the finished weeks skips every shard and
// writes only the metadata again.
func TestOneSyncPerShard(t *testing.T) {
	run := commitWorld(t, 4)
	cs := &crashStore{Store: store.NewMem(), t: t}
	if err := run(cs, 2); err != nil {
		t.Fatal(err)
	}
	if cs.puts != 2 || cs.batches != 6 || cs.syncs != 8 {
		t.Errorf("two weeks of three shards: %d puts, %d batches, %d syncs; want 2, 6, 8", cs.puts, cs.batches, cs.syncs)
	}
	*cs = crashStore{Store: cs.Store, t: t}
	if err := run(cs, 2); err != nil {
		t.Fatal(err)
	}
	if cs.puts != 2 || cs.batches != 0 || cs.syncs != 2 {
		t.Errorf("re-run (every shard skipped): %d puts, %d batches, %d syncs; want 2, 0, 2",
			cs.puts, cs.batches, cs.syncs)
	}
}
