package scansvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/store"
)

// ErrQueueFull rejects a submission when the in-memory dispatch queue
// is at capacity (HTTP 503 at the API layer).
var ErrQueueFull = errors.New("scansvc: job queue full")

// ErrRateLimited rejects a submission the tenant's token bucket cannot
// afford (HTTP 429 at the API layer).
var ErrRateLimited = errors.New("scansvc: tenant rate limit exceeded")

// Service is the durable scan-job queue: submissions persist to Store
// before they are acknowledged, at most MaxConcurrent jobs scan at
// once, and a job interrupted by a crash resumes from its campaign
// shard checkpoints on the next Start — completing with results
// byte-identical to an uninterrupted run (docs/SERVICE.md).
type Service struct {
	// Store persists jobs, domain lists, results (via the campaign
	// layout) and ingested TLSRPT reports. Required.
	Store store.Store
	// Scan executes each job's domains. Required. Must be safe for
	// concurrent use (scanner.Live and scanner.ArtifactScanner are).
	Scan scanner.Scanner
	// Runner shapes the per-job scanner.Runner (stage pool sizes,
	// retry budget).
	Runner RunnerSpec
	// Obs, when non-nil, receives the scansvc.* and tlsrpt.ingest.*
	// metrics cataloged in docs/OBSERVABILITY.md; Events the
	// scansvc.job.* JSONL events.
	Obs    *obs.Registry
	Events *obs.EventSink
	// MaxConcurrent bounds simultaneously scanning jobs (default 2).
	MaxConcurrent int
	// MaxQueue bounds the dispatch queue (default 1024). The queue
	// holds job IDs only; the jobs themselves are already durable.
	MaxQueue int
	// ShardSize is the per-job checkpoint granularity (campaign
	// default if 0).
	ShardSize int
	// Tenants, when non-nil, applies per-tenant token-bucket admission
	// (one token per submitted domain).
	Tenants *TenantLimiter

	mu      sync.Mutex
	started bool
	closed  bool
	seq     int                           // last allocated job sequence number
	cancels map[string]context.CancelFunc // in-flight jobs
	pending int                           // queued-but-not-started count

	queue  chan string
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// Start recovers the durable queue and launches the workers: every
// stored job still pending is re-queued, every job stored as running
// (a crash mid-scan) is re-queued to resume from its checkpoints.
// Jobs are re-queued in ID (submission) order.
func (s *Service) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("scansvc: Start called twice")
	}
	if s.Store == nil || s.Scan == nil {
		s.mu.Unlock()
		return fmt.Errorf("scansvc: Service needs both Store and Scan")
	}
	s.started = true
	s.cancels = make(map[string]context.CancelFunc)
	s.queue = make(chan string, s.maxQueue())
	//lint:ignore ctxpass the service owns its own lifetime root; Close cancels it
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.mu.Unlock()

	s.registerMetrics()

	// Recover before serving: Submit is not callable yet (the HTTP
	// layer starts after Start returns), so the scan sees a quiescent
	// store.
	var resume []string
	maxSeq := 0
	err := s.Store.Scan(jobKeyPrefix, func(k string, v []byte) error {
		var j Job
		if err := json.Unmarshal(v, &j); err != nil {
			return fmt.Errorf("scansvc: corrupt job record %s: %w", k, err)
		}
		if n := jobSeq(j.ID); n > maxSeq {
			maxSeq = n
		}
		if !j.State.Terminal() {
			resume = append(resume, j.ID)
			if j.State == StateRunning {
				s.Obs.Counter("scansvc.jobs.resumed").Inc()
				s.event("scansvc.job.resumed", &j, nil)
			}
		}
		return nil
	})
	if err != nil {
		s.cancel()
		return err
	}
	s.mu.Lock()
	s.seq = maxSeq
	s.mu.Unlock()
	sort.Strings(resume)
	for _, id := range resume {
		select {
		case s.queue <- id:
			s.addPending(1)
		default:
			s.cancel()
			return fmt.Errorf("scansvc: %d recovered jobs overflow the queue (max %d)", len(resume), s.maxQueue())
		}
	}

	for i := 0; i < s.maxConcurrent(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return nil
}

// Close stops the workers and waits for them. In-flight jobs abort at
// the next shard boundary with their stored state still running, so a
// subsequent Start resumes them — Close is the graceful form of the
// crash the queue is built to survive.
func (s *Service) Close() error {
	s.mu.Lock()
	if !s.started || s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return nil
}

func (s *Service) maxConcurrent() int {
	if s.MaxConcurrent > 0 {
		return s.MaxConcurrent
	}
	return 2
}

func (s *Service) maxQueue() int {
	if s.MaxQueue > 0 {
		return s.MaxQueue
	}
	return 1024
}

// registerMetrics pre-registers the service's counters and hooks the
// queue-depth gauges, so snapshots show zeros rather than absences.
func (s *Service) registerMetrics() {
	if !s.Obs.Enabled() {
		return
	}
	for _, c := range []string{
		"scansvc.jobs.submitted", "scansvc.jobs.completed", "scansvc.jobs.failed",
		"scansvc.jobs.canceled", "scansvc.jobs.resumed", "scansvc.ratelimit.rejected",
		"scansvc.results.errors",
		"tlsrpt.ingest.accepted", "tlsrpt.ingest.rejected",
	} {
		s.Obs.Counter(c)
	}
	s.Obs.Gauge("scansvc.jobs.running")
	s.Obs.Gauge("scansvc.jobs.pending")
}

func (s *Service) addPending(d int64) {
	s.mu.Lock()
	s.pending += int(d)
	s.mu.Unlock()
	s.Obs.Gauge("scansvc.jobs.pending").Add(d)
}

func (s *Service) event(name string, j *Job, extra map[string]any) {
	if s.Events == nil {
		return
	}
	fields := map[string]any{"job": j.ID, "tenant": j.Tenant, "domains": j.Domains}
	for k, v := range extra {
		fields[k] = v
	}
	s.Events.Emit(name, fields)
}

// Submit validates, persists and enqueues one job. The returned Job is
// the acknowledged stored state (pending). The domain list is stored
// and synced before the job record, so a job can never be durable
// without its domains.
func (s *Service) Submit(tenant string, domains []string) (*Job, error) {
	s.mu.Lock()
	if !s.started || s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("scansvc: service not running")
	}
	s.mu.Unlock()
	if len(domains) == 0 {
		return nil, fmt.Errorf("scansvc: job needs at least one domain")
	}
	for _, d := range domains {
		if d == "" || strings.ContainsAny(d, "/ \t\r\n") {
			return nil, fmt.Errorf("scansvc: invalid domain %q", d)
		}
	}
	if tenant == "" {
		tenant = "default"
	}
	if !s.Tenants.Admit(tenant, len(domains)) {
		s.Obs.Counter("scansvc.ratelimit.rejected").Inc()
		return nil, fmt.Errorf("%w: tenant %s over budget for %d domains", ErrRateLimited, tenant, len(domains))
	}

	// The allocator is purely in-memory (recovered from the stored jobs
	// at Start), so no store I/O happens under the mutex; the ID only
	// becomes durable with the job record below.
	s.mu.Lock()
	s.seq++
	id := jobID(s.seq)
	s.mu.Unlock()

	shardSize := s.ShardSize
	if shardSize <= 0 {
		shardSize = campaign.DefaultShardSize
	}
	j := &Job{
		ID:          id,
		Tenant:      tenant,
		State:       StatePending,
		Domains:     len(domains),
		Shards:      (len(domains) + shardSize - 1) / shardSize,
		SubmittedAt: time.Now().UTC(),
	}
	dv, err := json.Marshal(domains)
	if err != nil {
		return nil, err
	}
	if err := s.Store.Put(domKey(id), dv); err != nil {
		return nil, err
	}
	if err := putJob(s.Store, j); err != nil {
		return nil, err
	}

	select {
	case s.queue <- id:
	default:
		// Leave the stored job pending: a restart re-queues it, so a
		// full queue delays rather than loses work — but tell the
		// caller the service is saturated.
		return nil, fmt.Errorf("%w: job %s stored but not scheduled until restart", ErrQueueFull, id)
	}
	s.addPending(1)
	s.Obs.Counter("scansvc.jobs.submitted").Inc()
	s.event("scansvc.job.submitted", j, nil)
	return j, nil
}

// Get returns one job's stored state.
func (s *Service) Get(id string) (*Job, bool, error) {
	return getJob(s.Store, id)
}

// List returns every stored job in submission order.
func (s *Service) List() ([]Job, error) {
	var out []Job
	err := s.Store.Scan(jobKeyPrefix, func(k string, v []byte) error {
		var j Job
		if err := json.Unmarshal(v, &j); err != nil {
			return fmt.Errorf("scansvc: corrupt job record %s: %w", k, err)
		}
		out = append(out, j)
		return nil
	})
	return out, err
}

// Cancel stops a job: a running job's scan context is canceled (its
// state becomes canceled once the scan unwinds); a pending job is
// marked canceled directly and skipped when dequeued. Canceling a
// terminal job is a no-op reporting the stored state.
func (s *Service) Cancel(id string) (*Job, error) {
	j, ok, err := getJob(s.Store, id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("scansvc: no such job %s", id)
	}
	if j.State.Terminal() {
		return j, nil
	}
	s.mu.Lock()
	cancel := s.cancels[id]
	s.mu.Unlock()
	if cancel != nil {
		// Running: the worker owns the state transition.
		cancel()
		return j, nil
	}
	// Pending (or stored-running with no live worker, i.e. recovered
	// but not yet dequeued): mark terminal now.
	j.State = StateCanceled
	j.FinishedAt = time.Now().UTC()
	if err := putJob(s.Store, j); err != nil {
		return nil, err
	}
	s.Obs.Counter("scansvc.jobs.canceled").Inc()
	s.event("scansvc.job.canceled", j, nil)
	return j, nil
}

// worker drains the queue until the service context ends.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case id := <-s.queue:
			s.addPending(-1)
			s.runJob(id)
		}
	}
}

// runJob executes one dequeued job through the campaign engine.
func (s *Service) runJob(id string) {
	j, ok, err := getJob(s.Store, id)
	if err != nil || !ok {
		// A corrupt or vanished record cannot be run; drop it rather
		// than kill the worker.
		return
	}
	if j.State.Terminal() {
		return // canceled while queued
	}
	domains, err := getDomains(s.Store, id)
	if err != nil {
		s.finishJob(j, StateFailed, err)
		return
	}

	j.State = StateRunning
	if err := putJob(s.Store, j); err != nil {
		s.finishJob(j, StateFailed, err)
		return
	}

	ctx, cancel := context.WithCancel(s.ctx)
	s.mu.Lock()
	s.cancels[id] = cancel
	s.mu.Unlock()
	s.Obs.Gauge("scansvc.jobs.running").Inc()
	s.event("scansvc.job.started", j, nil)
	start := time.Now()

	runner, err := s.Runner.Build(s.Scan, s.Obs, s.Events)
	if err == nil {
		eng := &campaign.Engine{
			Store:     s.Store,
			Runner:    runner,
			ID:        id,
			ShardSize: s.ShardSize,
			Obs:       s.Obs,
			Events:    s.Events,
		}
		err = eng.RunWeek(ctx, resultsWeek, campaign.SliceSource(domains))
	}

	s.mu.Lock()
	delete(s.cancels, id)
	s.mu.Unlock()
	cancel()
	s.Obs.Gauge("scansvc.jobs.running").Dec()
	s.Obs.Histogram("scansvc.job.seconds", nil).ObserveSince(start)

	switch {
	case err == nil:
		s.finishJob(j, StateDone, nil)
	case errors.Is(err, context.Canceled) && s.ctx.Err() != nil:
		// Service shutdown, not a job-level verdict: stored state stays
		// running so the next Start resumes from the checkpoints.
	case errors.Is(err, context.Canceled):
		s.finishJob(j, StateCanceled, nil)
	default:
		s.finishJob(j, StateFailed, err)
	}
}

// finishJob records a terminal state (best-effort durable: a failed
// Put leaves the job running, which resume treats conservatively).
func (s *Service) finishJob(j *Job, st State, cause error) {
	j.State = st
	j.FinishedAt = time.Now().UTC()
	if cause != nil {
		j.Error = cause.Error()
	}
	if err := putJob(s.Store, j); err != nil && j.Error == "" {
		j.Error = err.Error()
	}
	switch st {
	case StateDone:
		s.Obs.Counter("scansvc.jobs.completed").Inc()
	case StateFailed:
		s.Obs.Counter("scansvc.jobs.failed").Inc()
	case StateCanceled:
		s.Obs.Counter("scansvc.jobs.canceled").Inc()
	}
	s.event("scansvc.job."+string(st), j, nil)
}
