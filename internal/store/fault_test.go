package store

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// errCrash is what every mutating call returns once crashFS has crashed.
var errCrash = errors.New("crashed")

// crashFS is an fsys over a real directory that numbers the store's
// mutating calls (each Write that reaches a file, Sync, Truncate,
// create, Remove and the directory fsync) and can crash at, or fail,
// any one of them. It tracks what is durable: each file's length at its
// last fsync, the files created and removed since the last directory
// fsync, and the ranges a failed fsync never wrote.
type crashFS struct {
	dir string
	// crashAt, when > 0, is the call that crashes: it and every later
	// mutating call return errCrash, and kill and power hold what a
	// process kill and a power loss leave at that instant.
	crashAt int
	// fault, when non-nil, may fail call n of the given kind instead.
	fault       func(n int, op string) error
	ops         []string // the kind of every mutating call made, in order
	kill, power map[string][]byte

	synced map[string]int64      // file → its length at its last fsync
	fresh  map[string]bool       // created since the last directory fsync
	gone   map[string][]byte     // removed since the last directory fsync → its durable bytes
	lost   map[string][][2]int64 // byte ranges a failed fsync dropped
}

// newCrashFS starts tracking dir, whose existing files count as durable.
func newCrashFS(t *testing.T, dir string) *crashFS {
	t.Helper()
	c := &crashFS{dir: dir, synced: map[string]int64{}, fresh: map[string]bool{},
		gone: map[string][]byte{}, lost: map[string][][2]int64{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		c.synced[e.Name()] = fi.Size()
	}
	return c
}

// step numbers one mutating call and decides its fate.
func (c *crashFS) step(op string) error {
	if c.kill != nil {
		return errCrash
	}
	c.ops = append(c.ops, op)
	if len(c.ops) == c.crashAt {
		c.kill, c.power = c.image(false), c.image(true)
		return errCrash
	}
	if c.fault != nil {
		return c.fault(len(c.ops), op)
	}
	return nil
}

// image reads the directory as a process kill (every completed write)
// or a power loss (only what was fsynced) leaves it.
func (c *crashFS) image(power bool) map[string][]byte {
	img := map[string][]byte{}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		panic(err)
	}
	for _, e := range entries {
		name := e.Name()
		b, err := os.ReadFile(filepath.Join(c.dir, name))
		if err != nil {
			panic(err)
		}
		if power {
			if c.fresh[name] {
				continue
			}
			b = c.durable(name, b)
		}
		img[name] = b
	}
	if power {
		maps.Copy(img, c.gone)
	}
	return img
}

// durable cuts b, the file's contents, to its last fsynced length and
// zeroes what a failed fsync dropped inside it.
func (c *crashFS) durable(name string, b []byte) []byte {
	b = append([]byte(nil), b[:min(int64(len(b)), c.synced[name])]...)
	for _, r := range c.lost[name] {
		clear(b[min(r[0], int64(len(b))):min(r[1], int64(len(b)))])
	}
	return b
}

func (c *crashFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (c *crashFS) ReadDir(dir string) ([]os.DirEntry, error)   { return os.ReadDir(dir) }

func (c *crashFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	base := filepath.Base(name)
	if _, err := os.Stat(name); flag&os.O_CREATE != 0 && errors.Is(err, os.ErrNotExist) {
		if err := c.step("create"); err != nil {
			return nil, err
		}
		c.fresh[base], c.synced[base] = true, 0
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &crashFile{File: f, fs: c, name: base, dir: name == c.dir}, nil
}

func (c *crashFS) Remove(name string) error {
	if err := c.step("remove"); err != nil {
		return err
	}
	base := filepath.Base(name)
	if b, err := os.ReadFile(name); err == nil && !c.fresh[base] {
		c.gone[base] = c.durable(base, b)
	}
	delete(c.fresh, base)
	return os.Remove(name)
}

// crashFile is an open file of a crashFS.
type crashFile struct {
	*os.File
	fs   *crashFS
	name string
	dir  bool // the store directory itself: its Sync is the directory fsync
}

// Write fails with a short write when the fault says so.
func (f *crashFile) Write(p []byte) (int, error) {
	if err := f.fs.step("write"); err != nil {
		if err == errCrash {
			return 0, err
		}
		n, _ := f.File.Write(p[:len(p)/2])
		return n, err
	}
	return f.File.Write(p)
}

func (f *crashFile) Truncate(size int64) error {
	if err := f.fs.step("truncate"); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

// Sync records what became durable; a failed fsync of a file drops the
// bytes written since the last good one.
func (f *crashFile) Sync() error {
	c := f.fs
	if f.dir {
		if err := c.step("dirsync"); err != nil {
			return err
		}
		clear(c.fresh)
		clear(c.gone)
		return f.File.Sync()
	}
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if err := c.step("sync"); err != nil {
		if err != errCrash {
			c.lost[f.name] = append(c.lost[f.name], [2]int64{c.synced[f.name], fi.Size()})
		}
		return err
	}
	c.synced[f.name] = fi.Size()
	return f.File.Sync()
}

// crashPuts is the enumeration workload's writes: overwrites of legacy
// keys and of each other, and in each run of four between Syncs two
// large ones. The second overflows the store's 4 KiB write buffer
// mid-record, so the OS holds a torn record, and crosses the 6 KB
// segment size, so the next write rotates over that torn tail.
func crashPuts() []Entry {
	var out []Entry
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("k%02d", i%18)
		if i%7 == 3 {
			key = "a" // a legacy key
		}
		n := 12 + i%5
		if i%4 == 1 || i%4 == 2 {
			n = 3000
		}
		out = append(out, Entry{Key: key, Value: []byte(strings.Repeat(string(rune('a'+i)), n))})
	}
	return out
}

// runCrashWorkload opens dir through fs, migrating its legacy segments,
// makes crashPuts (writes 8..11 as one Batch, a Sync after every fourth
// write) and closes, carrying on past errors. acked counts the writes a
// successful Sync or Close covered, made those attempted, and poisoned
// the writes attempted before the first error (-1 if none).
func runCrashWorkload(fs fsys, dir string) (acked, made, poisoned int, err error) {
	s, err := openDisk(dir, fs)
	if err != nil {
		return 0, 0, 0, err
	}
	s.SegmentBytes = 6000
	poisoned = -1
	note := func(n int, err error) bool {
		if err != nil && poisoned < 0 {
			poisoned = n
		}
		return err == nil
	}
	puts := crashPuts()
	for made < len(puts) {
		before := made
		if made == 8 {
			made += 4
			note(before, s.Batch(puts[8:12]))
		} else {
			made++
			note(before, s.Put(puts[before].Key, puts[before].Value))
		}
		if made%4 == 0 && note(made, s.Sync()) {
			acked = made
		}
	}
	if note(made, s.Close()) {
		acked = made
	}
	return acked, made, poisoned, nil
}

// prefixStates returns the contents after each prefix of puts on top
// of base: states[j] holds the first j writes.
func prefixStates(base model, puts []Entry) []model {
	states := []model{maps.Clone(base)}
	for _, e := range puts {
		m := maps.Clone(states[len(states)-1])
		m[e.Key] = string(e.Value)
		states = append(states, m)
	}
	return states
}

// checkImage writes img to a new directory and reopens it with the real
// file system: it must open, and hold exactly the first j writes for
// some j in [acked, made].
func checkImage(t *testing.T, img map[string][]byte, states []model, acked, made int) error {
	t.Helper()
	dir := t.TempDir()
	for name, b := range img {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenDisk(dir)
	if err != nil {
		return fmt.Errorf("reopen: %v", err)
	}
	defer s.Close()
	got := model{}
	if err := s.Scan("", func(k string, v []byte) error {
		got[k] = string(v)
		return nil
	}); err != nil {
		return err
	}
	for j := acked; j <= made; j++ {
		if maps.Equal(got, states[j]) {
			return nil
		}
	}
	return fmt.Errorf("reopened %d keys, not the first j writes for any j in [%d, %d]", len(got), acked, made)
}

// crashStart returns a maker of the workload's starting directory: the
// legacy fixture beside the torn start of its migration's copy, as a
// crash mid-migration leaves it. Opening it truncates the torn record,
// copies the rest and removes the legacy segments.
func crashStart(t *testing.T) func() string {
	t.Helper()
	done := t.TempDir()
	putLegacy(t, done, legacySegments...)
	checkMigrated(t, done, legacyWant(t))
	seg, err := os.ReadFile(filepath.Join(done, "seg-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	torn := seg[:readSegment(t, filepath.Join(done, "seg-000001.log"))[2].off+3]
	return func() string {
		dir := t.TempDir()
		putLegacy(t, dir, legacySegments...)
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
}

// TestDiskCrashEveryOp crashes the workload at each of its mutating
// file-system calls, from the legacy migration through three rotations,
// and reopens what a process kill (every completed write) and a power
// loss (each file cut to its last fsync, files created since the last
// directory fsync gone, files removed since it back) leave. Every image
// must open and hold a prefix of the writes made that includes every
// write a successful Sync acknowledged.
func TestDiskCrashEveryOp(t *testing.T) {
	states := prefixStates(legacyWant(t), crashPuts())
	start := crashStart(t)
	ref := newCrashFS(t, start())
	if _, _, poisoned, err := runCrashWorkload(ref, ref.dir); err != nil || poisoned >= 0 {
		t.Fatalf("uninterrupted workload: %v (first error after %d writes)", err, poisoned)
	}
	if segs, _ := filepath.Glob(filepath.Join(ref.dir, "seg-*.log")); len(segs) < 3 {
		t.Fatalf("workload spans %d segments, want at least 3 (two rotations)", len(segs))
	}
	for _, want := range []string{"write", "sync", "truncate", "create", "remove", "dirsync"} {
		if !strings.Contains(strings.Join(ref.ops, " "), want) {
			t.Fatalf("workload makes no %s call: %v", want, ref.ops)
		}
	}
	for n := 1; n <= len(ref.ops); n++ {
		c := newCrashFS(t, start())
		c.crashAt = n
		acked, made, _, err := runCrashWorkload(c, c.dir)
		if err != nil && !errors.Is(err, errCrash) {
			t.Fatalf("crash at call %d (%s): %v", n, ref.ops[n-1], err)
		}
		if c.kill == nil {
			t.Fatalf("call %d (%s) never came", n, ref.ops[n-1])
		}
		for _, im := range []struct {
			model string
			img   map[string][]byte
		}{{"process kill", c.kill}, {"power loss", c.power}} {
			if err := checkImage(t, im.img, states, acked, made); err != nil {
				t.Fatalf("%s at call %d of %d (%s): %v", im.model, n, len(ref.ops), ref.ops[n-1], err)
			}
		}
	}
	t.Logf("%d crash points, each under both models", len(ref.ops))
}

// TestDiskFaultEveryWriteAndSync fails, one run at a time, each Write
// (with a short write and ENOSPC) and each segment fsync (with EIO) of
// the workload, which carries on calling the store. The failure must
// poison the Disk: no later Sync or Close may succeed, since Linux
// reports a lost writeback only once. The power-loss image at the end,
// the failed fsync's range zeroed, must open and hold every write a
// successful Sync acknowledged.
func TestDiskFaultEveryWriteAndSync(t *testing.T) {
	states := prefixStates(legacyWant(t), crashPuts())
	start := crashStart(t)
	ref := newCrashFS(t, start())
	if _, _, _, err := runCrashWorkload(ref, ref.dir); err != nil {
		t.Fatal(err)
	}
	faults := 0
	for n, op := range ref.ops {
		if op != "write" && op != "sync" {
			continue
		}
		faults++
		c := newCrashFS(t, start())
		c.fault = func(k int, op string) error {
			switch {
			case k != n+1:
				return nil
			case op == "write":
				return syscall.ENOSPC
			default:
				return syscall.EIO
			}
		}
		acked, made, poisoned, err := runCrashWorkload(c, c.dir)
		if err != nil {
			// A fault while migrating fails OpenDisk; the legacy files
			// are still there for the next open.
			if err := checkImage(t, c.image(true), states, 0, 0); err != nil {
				t.Fatalf("%s fault at call %d, in OpenDisk: %v", op, n+1, err)
			}
			continue
		}
		if poisoned < 0 || acked > poisoned {
			t.Fatalf("%s fault at call %d: first error after %d writes, yet %d acknowledged", op, n+1, poisoned, acked)
		}
		if err := checkImage(t, c.image(true), states, acked, made); err != nil {
			t.Fatalf("power loss after a %s fault at call %d: %v", op, n+1, err)
		}
	}
	t.Logf("%d faults injected", faults)
}

// TestDiskSyncErrorPoisons: after one failed fsync (EIO) or one short
// write (ENOSPC), Put, Batch, Sync and Close return that error, while
// Get and Scan keep serving every record that reached the file, and
// reopening the directory recovers every acknowledged write.
func TestDiskSyncErrorPoisons(t *testing.T) {
	for _, tc := range []struct {
		op  string
		err error
	}{{"sync", syscall.EIO}, {"write", syscall.ENOSPC}} {
		t.Run(tc.op, func(t *testing.T) {
			c := newCrashFS(t, t.TempDir())
			s, err := openDisk(c.dir, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("acked", []byte("durable")); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			armed := true
			c.fault = func(_ int, op string) error {
				if armed && op == tc.op {
					armed = false
					return tc.err
				}
				return nil
			}
			if err := s.Put("lost", []byte("never acknowledged")); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); !errors.Is(err, tc.err) {
				t.Fatalf("failing Sync = %v, want %v", err, tc.err)
			}
			for name, call := range map[string]func() error{
				"Sync":  s.Sync,
				"Put":   func() error { return s.Put("later", []byte("x")) },
				"Batch": func() error { return s.Batch([]Entry{{Key: "later", Value: []byte("x")}}) },
			} {
				if err := call(); !errors.Is(err, tc.err) {
					t.Errorf("%s after the failure = %v, want %v", name, err, tc.err)
				}
			}
			if v, ok, err := s.Get("acked"); err != nil || !ok || string(v) != "durable" {
				t.Errorf("Get after the failure = %q, %v, %v", v, ok, err)
			}
			if n, err := Len(s, "ack"); err != nil || n != 1 {
				t.Errorf("Scan after the failure = %d keys, %v", n, err)
			}
			if err := s.Close(); !errors.Is(err, tc.err) {
				t.Errorf("Close after the failure = %v, want %v", err, tc.err)
			}
			r, err := OpenDisk(c.dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer r.Close()
			if v, ok, err := r.Get("acked"); err != nil || !ok || string(v) != "durable" {
				t.Errorf("reopened Get(acked) = %q, %v, %v", v, ok, err)
			}
		})
	}
}
