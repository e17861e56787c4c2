package campaign

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/simnet"
	"github.com/netsecurelab/mtasts/internal/store"
)

// testWorld is the shared small world; snapshots are cheap to
// rematerialize per test.
var testWorld = simnet.Generate(simnet.Config{Seed: 11, Scale: 0.02})

// snapshotSource returns the sorted domain list and an artifact scanner
// for one simnet snapshot — the offline equivalent of a weekly sweep.
func snapshotSource(w *simnet.World, t int) (DomainSource, scanner.Scanner, int) {
	var (
		names []string
		arts  []scanner.Artifacts
	)
	for _, d := range w.Domains {
		if a, ok := w.ArtifactsAt(d, t); ok {
			names = append(names, d.Name)
			arts = append(arts, a)
		}
	}
	sort.Strings(names)
	return SliceSource(names), scanner.NewArtifactScanner(arts, simnet.SnapshotTime(t), 0), len(names)
}

// weekSnapshot maps campaign week w onto the simnet snapshot index: the
// component-scan era advances one snapshot per week.
func weekSnapshot(w int) int {
	t := simnet.ComponentScanFirstIndex + w
	if t > simnet.Months-1 {
		t = simnet.Months - 1
	}
	return t
}

func runTestWeek(t *testing.T, s store.Store, id string, week, shardSize int) (int, error) {
	t.Helper()
	src, scan, n := snapshotSource(testWorld, weekSnapshot(week))
	eng := &Engine{
		Store:     s,
		Runner:    &scanner.Runner{Workers: 8, Scan: scan},
		ID:        id,
		ShardSize: shardSize,
	}
	return n, eng.RunWeek(context.Background(), week, src)
}

func TestRunWeekStoresEveryDomain(t *testing.T) {
	s := NewMemForTest()
	n, err := runTestWeek(t, s, "w1", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty snapshot; scale too small")
	}
	got, err := store.Len(s, weekPrefix("w1", 0))
	if err != nil || got != n {
		t.Fatalf("stored %d records err=%v, want %d", got, err, n)
	}

	// The stored aggregate must agree with summarizing the same scan
	// directly (same scanner, so the same host-consistent MX view).
	src, scan, _ := snapshotSource(testWorld, weekSnapshot(0))
	var domains []string
	if err := src(func(d string) error { domains = append(domains, d); return nil }); err != nil {
		t.Fatal(err)
	}
	results := (&scanner.Runner{Workers: 8, Scan: scan}).Run(context.Background(), domains)
	want := scanner.Summarize(results)
	sum, err := Aggregate(s, "w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Domains != len(results) || sum.Misconfigured != want.Misconfigured ||
		sum.DeliveryFailure != want.DeliveryFailures {
		t.Fatalf("Aggregate = %+v, want to match scanner summary %+v", sum, want)
	}
	for code, cnt := range want.ByCode {
		if sum.ByCode[string(code)] != cnt {
			t.Fatalf("ByCode[%s] = %d, want %d", code, sum.ByCode[string(code)], cnt)
		}
	}

	st, err := ReadStatus(s, "w1")
	if err != nil {
		t.Fatal(err)
	}
	wantShards := (n + 63) / 64
	if st.Weeks[0] != wantShards || st.Records != n {
		t.Fatalf("Status = %+v, want %d shards / %d records", st, wantShards, n)
	}
	if len(st.Meta.WeeksDone) != 1 || st.Meta.WeeksDone[0] != 0 {
		t.Fatalf("WeeksDone = %v, want [0]", st.Meta.WeeksDone)
	}
}

func TestResumeSkipsCheckpointedShards(t *testing.T) {
	s := NewMemForTest()
	if _, err := runTestWeek(t, s, "w2", 0, 64); err != nil {
		t.Fatal(err)
	}
	// Re-running the identical week must scan nothing.
	src, scan, _ := snapshotSource(testWorld, weekSnapshot(0))
	reg := obs.NewRegistry()
	eng := &Engine{
		Store:  s,
		Runner: &scanner.Runner{Workers: 4, Scan: scan},
		ID:     "w2", ShardSize: 64, Obs: reg,
	}
	if err := eng.RunWeek(context.Background(), 0, src); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("campaign.shards.completed").Value(); got != 0 {
		t.Fatalf("re-run scanned %d shards, want 0", got)
	}
	if got := reg.Counter("campaign.shards.skipped").Value(); got == 0 {
		t.Fatal("re-run skipped no shards")
	}
}

func TestResumeRejectsChangedSource(t *testing.T) {
	s := NewMemForTest()
	if _, err := runTestWeek(t, s, "w3", 0, 64); err != nil {
		t.Fatal(err)
	}
	src, scan, _ := snapshotSource(testWorld, weekSnapshot(1)) // different snapshot = different list
	eng := &Engine{
		Store:  s,
		Runner: &scanner.Runner{Workers: 4, Scan: scan},
		ID:     "w3", ShardSize: 64,
	}
	if err := eng.RunWeek(context.Background(), 0, src); err == nil {
		t.Fatal("resume over a changed source succeeded; want checkpoint mismatch")
	}
}

func TestEngineValidation(t *testing.T) {
	eng := &Engine{Store: NewMemForTest(), Runner: &scanner.Runner{Workers: 1, Scan: scanner.NewArtifactScanner(nil, simnet.SnapshotTime(0), 0)}}
	for _, id := range []string{"", "a/b", "a b"} {
		eng.ID = id
		if err := eng.RunWeek(context.Background(), 0, SliceSource(nil)); err == nil {
			t.Fatalf("ID %q accepted", id)
		}
	}
	eng.ID = "ok"
	if err := eng.RunWeek(context.Background(), -1, SliceSource(nil)); err == nil {
		t.Fatal("negative week accepted")
	}
	if err := eng.RunWeek(context.Background(), 0, SliceSource([]string{""})); err == nil {
		t.Fatal("empty domain accepted")
	}
}

// NewMemForTest keeps test call sites honest about which backend they
// use (the resume tests use Disk explicitly).
func NewMemForTest() store.Store { return store.NewMem() }

// batchLog records a copy of every Batch its store receives.
type batchLog struct {
	store.Store
	batches [][]store.Entry
}

func (b *batchLog) Batch(entries []store.Entry) error {
	b.batches = append(b.batches, slices.Clone(entries))
	return b.Store.Batch(entries)
}

// TestShardBatchInKeyOrder submits a shuffled domain list and requires
// each shard's one Batch to hold its result records in ascending key
// order with the checkpoint last: the order that lets Disk.Scan read a
// stored shard back in runs of adjacent records, under the
// durable-prefix rule the checkpoint relies on. The order comes from
// Runner.Run, which returns results sorted by domain.
func TestShardBatchInKeyOrder(t *testing.T) {
	const id, shardSize = "order", 16
	src, scan, n := snapshotSource(testWorld, weekSnapshot(0))
	var domains []string
	if err := src(func(d string) error { domains = append(domains, d); return nil }); err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(domains), func(i, j int) { domains[i], domains[j] = domains[j], domains[i] })
	log := &batchLog{Store: store.NewMem()}
	eng := &Engine{Store: log, Runner: &scanner.Runner{Workers: 4, Scan: scan}, ID: id, ShardSize: shardSize}
	if err := eng.RunWeek(context.Background(), 0, SliceSource(domains)); err != nil {
		t.Fatal(err)
	}
	if want := (n + shardSize - 1) / shardSize; len(log.batches) != want {
		t.Fatalf("%d domains in shards of %d: %d batches, want %d", n, shardSize, len(log.batches), want)
	}
	for ix, b := range log.batches {
		results, ck := b[:len(b)-1], b[len(b)-1]
		if ck.Key != checkpointKey(id, 0, ix) {
			t.Errorf("shard %d: last entry %q, want its checkpoint", ix, ck.Key)
		}
		for i, e := range results {
			if !strings.HasPrefix(e.Key, weekPrefix(id, 0)) {
				t.Errorf("shard %d entry %d: %q is not a result record", ix, i, e.Key)
			} else if i > 0 && e.Key <= results[i-1].Key {
				t.Errorf("shard %d entry %d: %q after %q, not in ascending key order", ix, i, e.Key, results[i-1].Key)
			}
		}
	}
}
