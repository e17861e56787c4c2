package scansvc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/clock"
	"github.com/netsecurelab/mtasts/internal/experiments"
	"github.com/netsecurelab/mtasts/internal/retry"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/simnet"
	"github.com/netsecurelab/mtasts/internal/store"
)

// testWorld is the shared small simnet world; the artifact scanner it
// yields is deterministic, so job results are reproducible across
// service restarts — the property the crash-resume tests assert.
var testWorld = simnet.Generate(simnet.Config{Seed: 11, Scale: 0.02})

// slowScanner delays each domain so tests can reliably observe a job
// mid-run (cancel, shutdown); results are unchanged, so determinism
// holds.
type slowScanner struct {
	inner scanner.Scanner
	delay time.Duration
}

func (s slowScanner) ScanDomain(ctx context.Context, d string) scanner.DomainResult {
	select {
	case <-ctx.Done():
	case <-time.After(s.delay):
	}
	return s.inner.ScanDomain(ctx, d)
}

// worldScan returns the deterministic scanner and sorted population of
// the test world's first component-scan snapshot.
func worldScan() (scanner.Scanner, []string) {
	src, scan := experiments.SnapshotSource(testWorld, experiments.WeekSnapshot(0))
	var names []string
	src(func(d string) error { //nolint:errcheck // slice source never fails
		names = append(names, d)
		return nil
	})
	sort.Strings(names)
	return scan, names
}

// newTestService builds a started service over the given store; the
// cleanup closes it.
func newTestService(t *testing.T, s store.Store, mutate func(*Service)) *Service {
	t.Helper()
	scan, _ := worldScan()
	svc := &Service{Store: s, Scan: scan, Runner: RunnerSpec{Workers: 8}, ShardSize: 16}
	if mutate != nil {
		mutate(svc)
	}
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// waitState polls until the job reaches a terminal state (or the given
// state) or the deadline passes.
func waitState(t *testing.T, svc *Service, id string, want State) *Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok, err := svc.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if ok && (j.State == want || (want == "" && j.State.Terminal())) {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _, _ := svc.Get(id)
	t.Fatalf("job %s never reached %q (now %+v)", id, want, j)
	return nil
}

func TestSubmitRunsToDone(t *testing.T) {
	s := store.NewMem()
	svc := newTestService(t, s, nil)
	_, names := worldScan()

	j, err := svc.Submit("acme", names[:40])
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.State != StatePending || j.Domains != 40 || j.ID != "j000001" {
		t.Fatalf("acknowledged job = %+v", j)
	}
	done := waitState(t, svc, j.ID, StateDone)
	if done.FinishedAt.IsZero() {
		t.Error("done job has zero FinishedAt")
	}

	var buf bytes.Buffer
	if err := svc.WriteResults(&buf, j.ID, false); err != nil {
		t.Fatalf("WriteResults: %v", err)
	}
	if got := bytes.Count(buf.Bytes(), []byte{'\n'}); got != 40 {
		t.Fatalf("results hold %d lines, want 40", got)
	}

	jobs, err := svc.List()
	if err != nil || len(jobs) != 1 || jobs[0].ID != j.ID {
		t.Fatalf("List = %v, %v", jobs, err)
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := newTestService(t, store.NewMem(), nil)
	if _, err := svc.Submit("acme", nil); err == nil {
		t.Error("empty domain list accepted")
	}
	if _, err := svc.Submit("acme", []string{"a.example", "bad/domain"}); err == nil {
		t.Error("slash domain accepted")
	}
	if _, err := svc.Submit("acme", []string{""}); err == nil {
		t.Error("empty domain accepted")
	}
}

// errCrashed is what every mutating call returns once crashStore has
// crashed.
var errCrashed = errors.New("crashed")

// crashStore wraps a store and records its mutating calls (Put, Batch,
// Sync). When at > 0 it crashes at call at: a Batch there first writes
// its first entry entries, the store's write buffer goes out to the OS,
// down is set, the directory dir is copied to image as the OS holds it
// at that instant, crashed is closed, and that call and every later one
// fail with errCrashed.
type crashStore struct {
	store.Store
	dir, image string
	at, entry  int
	crashed    chan struct{}
	down       atomic.Bool

	mu    sync.Mutex
	calls []int // per mutating call: the Batch's length, or 0
}

func newCrashStore(s store.Store, dir string, at, entry int) *crashStore {
	return &crashStore{Store: s, dir: dir, at: at, entry: entry, crashed: make(chan struct{})}
}

func (c *crashStore) step(n int, write func(n int) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down.Load() {
		return errCrashed
	}
	c.calls = append(c.calls, n)
	if len(c.calls) != c.at {
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
	c.down.Store(true)
	c.image = c.dir + ".image"
	if err := copyDir(c.dir, c.image); err != nil {
		panic(err)
	}
	close(c.crashed)
	return errCrashed
}

// copyDir copies the files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (c *crashStore) Put(key string, value []byte) error {
	return c.step(0, func(int) error { return c.Store.Put(key, value) })
}

func (c *crashStore) Batch(entries []store.Entry) error {
	return c.step(len(entries), func(n int) error { return c.Store.Batch(entries[:n]) })
}

func (c *crashStore) Sync() error { return c.step(0, func(int) error { return c.Store.Sync() }) }

// TestCrashResumeByteIdentical crashes a three-shard job at each of the
// store writes and syncs the service makes for it, from Submit to the
// final state, and inside each shard's batch after each entry. A fresh
// service over the reopened crash image must finish the job (the client
// resubmits if the crash lost an unacknowledged Submit) with results
// byte-identical to an uninterrupted run, and a job state read back as
// terminal before the crash must not revert after it.
func TestCrashResumeByteIdentical(t *testing.T) {
	_, names := worldScan()
	population := names[:12]
	shards := func(sv *Service) { sv.ShardSize = 4 }
	results := func(svc *Service, id string) []byte {
		var b bytes.Buffer
		if err := svc.WriteResults(&b, id, false); err != nil {
			t.Fatalf("results: %v", err)
		}
		return b.Bytes()
	}

	count := newCrashStore(store.NewMem(), "", 0, 0)
	ref := newTestService(t, count, shards)
	rj, err := ref.Submit("acme", population)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ref, rj.ID, StateDone)
	ref.Close()
	want := results(ref, rj.ID)

	points := 0
	for i, n := range count.calls {
		for entry := 0; entry < max(n, 1); entry++ {
			points++
			dir := filepath.Join(t.TempDir(), "store")
			d, err := store.OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			cs := newCrashStore(d, dir, i+1, entry)
			svc := newTestService(t, cs, shards)
			svc.Submit("acme", population) //nolint:errcheck // a crash inside Submit leaves it unacknowledged
			var seen State
			for crashed := false; !crashed; {
				select {
				case <-cs.crashed:
					crashed = true
				case <-time.After(time.Millisecond):
					if j, ok, err := svc.Get(rj.ID); err == nil && ok && j.State.Terminal() && !cs.down.Load() {
						seen = j.State
					}
				}
			}
			svc.Close()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := store.OpenDisk(cs.image)
			if err != nil {
				t.Fatalf("crash at call %d entry %d: reopen: %v", i+1, entry, err)
			}
			svc2 := newTestService(t, r, shards)
			if _, ok, err := svc2.Get(rj.ID); err != nil {
				t.Fatal(err)
			} else if !ok {
				if _, err := svc2.Submit("acme", population); err != nil {
					t.Fatal(err)
				}
			}
			got := waitState(t, svc2, rj.ID, "")
			if seen != "" && got.State != seen {
				t.Fatalf("crash at call %d entry %d: job read back %s before the crash, %s after", i+1, entry, seen, got.State)
			}
			if got.State != StateDone || !bytes.Equal(results(svc2, rj.ID), want) {
				t.Fatalf("crash at call %d entry %d: resumed job %s, results differ from the uninterrupted run", i+1, entry, got.State)
			}
			svc2.Close()
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d crash points", points)
}

func TestCancelPendingJob(t *testing.T) {
	s := store.NewMem()
	// MaxConcurrent 1 and a slow first job so the second stays pending.
	svc := newTestService(t, s, func(sv *Service) {
		sv.MaxConcurrent = 1
		sv.Scan = slowScanner{inner: sv.Scan, delay: 5 * time.Millisecond}
	})
	_, names := worldScan()

	j1, err := svc.Submit("acme", names[:48])
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	j2, err := svc.Submit("acme", names[:16])
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	if _, err := svc.Cancel(j2.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	got := waitState(t, svc, j2.ID, StateCanceled)
	if got.State != StateCanceled {
		t.Fatalf("state = %s", got.State)
	}
	// The canceled job must never produce results.
	waitState(t, svc, j1.ID, StateDone)
	var buf bytes.Buffer
	if err := svc.WriteResults(&buf, j2.ID, false); err != nil {
		t.Fatalf("WriteResults: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("canceled job has %d bytes of results", buf.Len())
	}
}

func TestTenantRateLimit(t *testing.T) {
	svc := newTestService(t, store.NewMem(), func(sv *Service) {
		sv.Tenants = NewTenantLimiter(1, 20) // 20-domain burst, 1/s refill
	})
	_, names := worldScan()

	if _, err := svc.Submit("noisy", names[:16]); err != nil {
		t.Fatalf("first submission within burst rejected: %v", err)
	}
	if _, err := svc.Submit("noisy", names[:16]); err == nil {
		t.Fatal("second submission over budget admitted")
	}
	// A different tenant has its own bucket.
	if _, err := svc.Submit("quiet", names[:16]); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

func TestResumeRecoversPendingJobs(t *testing.T) {
	s := store.NewMem()
	scan, names := worldScan()

	// Seed the store with a pending job no service has touched — the
	// shape left behind by a crash between Submit's sync and dispatch.
	seed := &Service{Store: s, Scan: scan}
	if err := seed.Start(); err != nil {
		t.Fatalf("seed Start: %v", err)
	}
	j, err := seed.Submit("acme", names[:8])
	if err != nil {
		t.Fatalf("seed Submit: %v", err)
	}
	// Close immediately; the job may or may not have started.
	seed.Close()

	svc := newTestService(t, s, nil)
	waitState(t, svc, j.ID, StateDone)
}

// TestEngineKeyCompatibility pins the job↔campaign bridge: results are
// readable through the campaign API under the job ID.
func TestEngineKeyCompatibility(t *testing.T) {
	s := store.NewMem()
	svc := newTestService(t, s, nil)
	_, names := worldScan()
	j, err := svc.Submit("acme", names[:8])
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, svc, j.ID, StateDone)
	sum, err := campaign.Aggregate(s, j.ID, 0)
	if err != nil {
		t.Fatalf("campaign.Aggregate over job results: %v", err)
	}
	if sum.Domains != 8 {
		t.Fatalf("aggregate sees %d domains, want 8", sum.Domains)
	}
}

func TestCloseLeavesRunningJobResumable(t *testing.T) {
	s := store.NewMem()
	scan, names := worldScan()
	svc := &Service{Store: s, Scan: slowScanner{inner: scan, delay: 5 * time.Millisecond},
		Runner: RunnerSpec{Workers: 2}, ShardSize: 8}
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	j, err := svc.Submit("acme", names[:64])
	if err != nil {
		svc.Close()
		t.Fatalf("Submit: %v", err)
	}
	// Close mid-run (or even before the worker dequeues — both states
	// must resume).
	svc.Close()

	stored, ok, err := getJob(s, j.ID)
	if err != nil || !ok {
		t.Fatalf("stored job: %v", err)
	}
	if stored.State.Terminal() {
		t.Fatalf("job reached %s before Close finished, cannot exercise resume", stored.State)
	}

	svc2 := newTestService(t, s, nil)
	waitState(t, svc2, j.ID, StateDone)
}

func TestStartTwiceFails(t *testing.T) {
	svc := newTestService(t, store.NewMem(), nil)
	if err := svc.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
}

// flakyScanner retries one operation per domain through retry.Policy:
// on domains named bad* it always fails transiently, on the others it
// fails once and then succeeds. Good domains wait until every bad one
// is scanned, so a budget the jobs shared would be spent by then.
type flakyScanner struct {
	bad         int
	badDone     chan struct{}
	scannedBad  atomic.Int32
	goodRetries atomic.Int32
}

func (f *flakyScanner) ScanDomain(ctx context.Context, d string) scanner.DomainResult {
	bad := strings.HasPrefix(d, "bad")
	if !bad {
		<-f.badDone
	}
	attempts := 0
	pol := retry.Policy{MaxAttempts: 3, Transient: func(error) bool { return true }}
	ctx = clock.With(ctx, clock.NewFake(time.Unix(0, 0))) // backoff takes no wall time
	pol.Do(ctx, func(context.Context) error {             //nolint:errcheck // the attempts are the outcome
		attempts++
		if bad || attempts == 1 {
			return errors.New("transient")
		}
		return nil
	})
	if bad {
		if int(f.scannedBad.Add(1)) == f.bad {
			close(f.badDone)
		}
	} else {
		f.goodRetries.Add(int32(attempts - 1))
	}
	return scanner.DomainResult{Domain: d}
}

// TestRetryBudgetPerJob runs two jobs at once under a 4-retry budget:
// one whose 8 domains fail transiently for good, and one whose 4
// domains each need one retry. Each job has its own budget, so the
// broken job's exhausted budget leaves the other's retries untouched.
func TestRetryBudgetPerJob(t *testing.T) {
	var bad, good []string
	for i := 0; i < 8; i++ {
		bad = append(bad, fmt.Sprintf("bad%d.test", i))
	}
	for i := 0; i < 4; i++ {
		good = append(good, fmt.Sprintf("good%d.test", i))
	}
	scan := &flakyScanner{bad: len(bad), badDone: make(chan struct{})}
	svc := newTestService(t, store.NewMem(), func(sv *Service) {
		sv.Scan = scan
		sv.Runner = RunnerSpec{Workers: 2, RetryBudget: 4}
	})
	jb, err := svc.Submit("broken", bad)
	if err != nil {
		t.Fatal(err)
	}
	jg, err := svc.Submit("healthy", good)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, jb.ID, StateDone)
	waitState(t, svc, jg.ID, StateDone)
	if got := scan.goodRetries.Load(); got != int32(len(good)) {
		t.Fatalf("healthy job made %d retries, want %d (one per domain)", got, len(good))
	}
}
