package scanner

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/netsecurelab/mtasts/internal/inconsistency"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/retry"
	"github.com/netsecurelab/mtasts/internal/sf"
)

// The Runner schedules a scan as three stage pools — DNS discovery,
// policy fetch, SMTP probing — wired by bounded queues, so each
// resource class (resolver sockets, HTTPS clients, SMTP dials) is sized
// independently and a slow MX cannot stall DNS discovery for the rest
// of the run. The paper's apparatus (§3) relies on exactly this shape:
// recipient-side probing is embarrassingly parallel per stage and
// massively redundant across domains, so stages parallelize and each
// MX host is probed once per Run however many domains list it.
// docs/PIPELINE.md has the full picture.

// FetchOutcome is the policy-retrieval stage's verdict for one domain,
// carried between pipeline stages and folded into the DomainResult by
// applyFetch.
type FetchOutcome struct {
	// OK is true when a valid policy was fetched and parsed.
	OK bool
	// Policy is the parsed policy when OK.
	Policy mtasts.Policy
	// Stage is the retrieval failure stage (StageNone when OK).
	Stage mtasts.Stage
	// CertProblem refines StageTLS failures.
	CertProblem pki.Problem
	// HTTPStatus refines StageHTTP failures. Backends fill it per their
	// own semantics (Live leaves it 0 on success, artifact replay
	// records the observed 200) and applyFetch copies it verbatim, so
	// ScanDomain and a Runner over the same backend agree byte for byte.
	HTTPStatus int
	// SyntaxErr holds the parse failure for StageSyntax.
	SyntaxErr error
}

// ProbeOutcome is the SMTP/STARTTLS stage's verdict for one MX host.
type ProbeOutcome struct {
	// NoSTARTTLS is true when the server does not offer STARTTLS at
	// all; Problem is meaningless then (footnote 4 of the paper).
	NoSTARTTLS bool
	// Problem is the certificate verdict for STARTTLS-capable hosts.
	Problem pki.Problem
}

// StageScanner is a Scanner decomposed into the three pipeline stages
// plus a finalizer. ScanDomain is their sequential composition
// (scanStages, then Finalize), which the Runner reproduces with each
// stage on its own pool.
//
// ProbeHost takes only scan-global state plus the MX host name, so the
// Runner can share its outcome across every domain that lists the host.
type StageScanner interface {
	Scanner

	// Discover runs the DNS stage. done means the remaining stages must
	// be skipped (no MTA-STS record, or a DNS failure that precludes the
	// policy fetch); Finalize still runs.
	Discover(ctx context.Context, domain string) (r DomainResult, done bool)
	// FetchPolicy runs the policy-retrieval stage.
	FetchPolicy(ctx context.Context, domain string) FetchOutcome
	// ProbeHost probes one MX host over SMTP/STARTTLS.
	ProbeHost(ctx context.Context, mxHost string) ProbeOutcome
	// Finalize derives the cross-stage verdicts (consistency analysis)
	// and records per-domain outcome metrics/events.
	Finalize(r *DomainResult, took time.Duration)
}

// applyFetch folds a fetch outcome into the result.
func applyFetch(r *DomainResult, f FetchOutcome) {
	if f.OK {
		r.PolicyOK = true
		r.Policy = f.Policy
		r.PolicyHTTPStatus = f.HTTPStatus
		return
	}
	r.PolicyStage = f.Stage
	r.PolicyCertProblem = f.CertProblem
	r.PolicyHTTPStatus = f.HTTPStatus
	r.PolicySyntaxErr = f.SyntaxErr
}

// applyProbe folds one MX probe outcome into the result. Callers
// iterate r.MXHosts in order, which fixes the MXNoSTARTTLS ordering.
func applyProbe(r *DomainResult, mxHost string, p ProbeOutcome) {
	if p.NoSTARTTLS {
		r.MXNoSTARTTLS = append(r.MXNoSTARTTLS, mxHost)
		return
	}
	r.MXProblems[mxHost] = p.Problem
}

// applyRecord folds the TXT values at _mta-sts.<domain> into the result
// and reports whether the domain has an MTA-STS record at all.
func applyRecord(r *DomainResult, txts []string) bool {
	rec, err := mtasts.DiscoverRecord(txts)
	if errors.Is(err, mtasts.ErrNoRecord) {
		return false
	}
	r.RecordPresent = true
	if err != nil {
		r.RecordErr = err
	} else {
		r.RecordValid = true
		r.Record = rec
	}
	return true
}

// verdict is every backend's Finalize step: the consistency analysis
// (§4.4) against the policy actually served, then the typed error
// taxonomy.
func (r *DomainResult) verdict() {
	if r.PolicyOK {
		r.Mismatch = inconsistency.Analyze(r.Domain, r.Policy, r.MXHosts)
	}
	r.Errors = r.deriveTaxErrors()
}

// scanStages composes s's stages sequentially, exactly as the Runner
// composes them concurrently; the MX probes run under one
// scan.mx_probe span on o (docs/PIPELINE.md).
func scanStages(ctx context.Context, s StageScanner, domain string, o *obs.Registry) DomainResult {
	r, done := s.Discover(ctx, domain)
	if done {
		return r
	}
	applyFetch(&r, s.FetchPolicy(ctx, domain))
	sp := o.StartSpan("scan.mx_probe")
	for _, mx := range r.MXHosts {
		applyProbe(&r, mx, s.ProbeHost(ctx, mx))
	}
	sp.End()
	return r
}

// StageWorkers sizes the Runner's per-stage pools. Zero or negative
// fields fall back to the Runner's Workers count.
type StageWorkers struct {
	DNS   int
	Fetch int
	Probe int
}

func (s StageWorkers) withDefaults(base int) StageWorkers {
	if base < 1 {
		base = 1
	}
	if s.DNS < 1 {
		s.DNS = base
	}
	if s.Fetch < 1 {
		s.Fetch = base
	}
	if s.Probe < 1 {
		s.Probe = base
	}
	return s
}

// Total returns the summed pool size across stages.
func (s StageWorkers) Total() int { return s.DNS + s.Fetch + s.Probe }

// ParseStageWorkers parses the -stage-workers flag syntax:
// "dns=8,fetch=4,probe=16". Stages may be omitted (they default to the
// Runner's Workers count); "auto" or "" means all defaults.
func ParseStageWorkers(spec string) (StageWorkers, error) {
	var sw StageWorkers
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "auto" {
		return sw, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return StageWorkers{}, fmt.Errorf("scanner: stage-workers %q: want stage=N", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 1 {
			return StageWorkers{}, fmt.Errorf("scanner: stage-workers %q: pool size must be a positive integer", part)
		}
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "dns":
			sw.DNS = n
		case "fetch":
			sw.Fetch = n
		case "probe":
			sw.Probe = n
		default:
			return StageWorkers{}, fmt.Errorf("scanner: stage-workers %q: unknown stage (want dns, fetch or probe)", key)
		}
	}
	return sw, nil
}

// finish folds the per-domain retry accounting into r and finalizes it:
// the tail shared by the sequential composition (Live.ScanDomain) and
// the Runner's collector.
func finish(scan StageScanner, r *DomainResult, stats *retry.Stats, took time.Duration) {
	r.Attempts = stats.Attempts()
	r.Retries = stats.Retries()
	r.RetryRecovered = stats.Recovered()
	r.RetryGaveUp = stats.GaveUp()
	scan.Finalize(r, took)
}

// wholeScan carries a Scanner that has no stage decomposition through
// the pipeline: Discover is the entire ScanDomain and reports done, so
// the later stages pass the job through and the run-level contract
// keeps its one implementation.
type wholeScan struct{ Scanner }

func (w wholeScan) Discover(ctx context.Context, domain string) (DomainResult, bool) {
	return w.ScanDomain(ctx, domain), true
}
func (wholeScan) FetchPolicy(context.Context, string) FetchOutcome { return FetchOutcome{} }
func (wholeScan) ProbeHost(context.Context, string) ProbeOutcome   { return ProbeOutcome{} }
func (wholeScan) Finalize(*DomainResult, time.Duration)            {}

// pipeJob is one domain moving through the pipeline. Exactly one
// goroutine owns a job at a time (ownership passes with the channel
// send), so its fields need no locking.
type pipeJob struct {
	domain string

	// ctx/stats carry the per-domain retry accounting; start anchors the
	// scanner.domain_scan.seconds observation. Set at DNS intake.
	ctx   context.Context
	stats *retry.Stats
	start time.Time

	// res is the domain's slot in Run's results: written in place, never
	// copied through the pipeline.
	res *DomainResult
	// canceled: the run's context was done before the DNS stage touched
	// the domain; *res is a Canceled placeholder and every later stage
	// (including Finalize) is skipped.
	canceled bool
	// done: Discover short-circuited (no record / record-lookup
	// failure); fetch and probe pass the job through untouched but
	// Finalize still runs.
	done bool
}

// stageObs bundles one stage's instrumentation; all handles are nil
// no-ops when the registry is nil.
type stageObs struct {
	depth *obs.Gauge
	busy  *obs.Gauge
	lat   *obs.Histogram
}

func newStageObs(reg *obs.Registry, stage string, workers int) stageObs {
	reg.Gauge("scanner.stage." + stage + ".workers").Set(int64(workers))
	return stageObs{
		depth: reg.Gauge("scanner.stage." + stage + ".queue.depth"),
		busy:  reg.Gauge("scanner.stage." + stage + ".busy"),
		lat:   reg.Histogram("scanner.stage."+stage+".latency.seconds", nil),
	}
}

// runStage starts a pool of workers draining in, applying fn to each
// live job, and forwarding everything to out. Jobs marked canceled or
// done pass through without running fn (and without counting toward the
// stage's latency histogram). When every worker has exited, out is
// closed, so closure propagates feeder → dns → fetch → probe → out.
func runStage(workers int, so stageObs, in <-chan *pipeJob, out chan<- *pipeJob, nextDepth *obs.Gauge, fn func(*pipeJob) bool) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range in {
				so.depth.Dec()
				if !job.canceled && !job.done {
					so.busy.Inc()
					var t0 time.Time
					if so.lat != nil {
						t0 = time.Now()
					}
					ran := fn(job)
					if so.lat != nil && ran {
						so.lat.ObserveSince(t0)
					}
					so.busy.Dec()
				}
				if nextDepth != nil {
					nextDepth.Inc()
				}
				out <- job
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
}

// Run scans all domains and returns results sorted by domain name. The
// context cancels outstanding work; completed results are still
// returned, and every domain that did not get a full scan is returned
// as a Canceled result so the run reconciles: len(results) always
// equals len(domains), the stage gauges drain to zero, and the progress
// tracker finishes at done == total.
func (r *Runner) Run(ctx context.Context, domains []string) []DomainResult {
	if r.RetryBudget != nil {
		ctx = retry.WithBudget(ctx, r.RetryBudget)
	}
	scan, ok := r.Scan.(StageScanner)
	if !ok {
		scan = wholeScan{r.Scan}
	}
	sw := r.StageWorkers.withDefaults(r.Workers)

	prog := r.Obs.Progress("scan")
	prog.SetTotal(int64(len(domains)))
	scans := r.Obs.Counter("scanner.scans.total")
	canceledC := r.Obs.Counter("scanner.domains.canceled")
	scanHist := r.Obs.Histogram("scanner.domain_scan.seconds", nil)
	runSpan := r.Obs.StartSpan("scan.run")
	r.Events.Emit("scan.run.start", map[string]any{
		"domains": len(domains), "workers": sw.Total(),
		"stage_workers": map[string]any{"dns": sw.DNS, "fetch": sw.Fetch, "probe": sw.Probe},
	})

	// Scan-scoped probe sharing: one outcome per MX host name for the
	// whole Run, so a result is never older than the Run's own snapshot.
	// Hosting is concentrated (§5 of the paper), so the memo is sized for
	// one distinct host per two domains and a typical run's map never
	// grows.
	probes := sf.Cache[ProbeOutcome]{SizeHint: len(domains) / 2}

	dnsObs := newStageObs(r.Obs, "dns", sw.DNS)
	fetchObs := newStageObs(r.Obs, "fetch", sw.Fetch)
	probeObs := newStageObs(r.Obs, "probe", sw.Probe)

	// Bounded queues: enough slack to keep a stage busy while the next
	// one drains, small enough that backpressure reaches the feeder.
	dnsQ := make(chan *pipeJob, 2*sw.DNS)
	fetchQ := make(chan *pipeJob, 2*sw.Fetch)
	probeQ := make(chan *pipeJob, 2*sw.Probe)
	outQ := make(chan *pipeJob, sw.Probe)

	// One result slot and one job per domain, allocated once. A job's
	// slot is its domain's rank, so results are born sorted by domain
	// while jobs are fed in submission order.
	results := make([]DomainResult, len(domains))
	jobs := make([]pipeJob, len(domains))
	order := make([]int32, len(domains))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(domains[a], domains[b]) })
	for k, i := range order {
		jobs[i] = pipeJob{domain: domains[i], res: &results[k]}
	}

	go func() {
		defer close(dnsQ)
		for i := range jobs {
			dnsObs.depth.Inc()
			dnsQ <- &jobs[i]
		}
	}()

	runStage(sw.DNS, dnsObs, dnsQ, fetchQ, fetchObs.depth, func(job *pipeJob) bool {
		if ctx.Err() != nil {
			// Canceled before this domain was touched: account for it
			// so the run reconciles (Add skips the in-flight pairing).
			job.canceled = true
			*job.res = DomainResult{Domain: job.domain, Canceled: true}
			prog.Add(1)
			canceledC.Inc()
			return false
		}
		job.ctx, job.stats = retry.WithStats(ctx)
		job.start = time.Now()
		prog.Start()
		*job.res, job.done = scan.Discover(job.ctx, job.domain)
		return true
	})
	runStage(sw.Fetch, fetchObs, fetchQ, probeQ, probeObs.depth, func(job *pipeJob) bool {
		applyFetch(job.res, scan.FetchPolicy(job.ctx, job.domain))
		return true
	})
	runStage(sw.Probe, probeObs, probeQ, outQ, nil, func(job *pipeJob) bool {
		for _, mx := range job.res.MXHosts {
			out, _ := probes.Do(mx, func() ProbeOutcome {
				return scan.ProbeHost(job.ctx, mx)
			})
			applyProbe(job.res, mx, out)
		}
		return true
	})

	// Collector: the last owner of every job, so it finishes results
	// without a lock. Each job arrives exactly once — channels never
	// drop, stages always forward, and closure is ordered behind the
	// last forward — so every slot is written when the loop ends.
	canceled := 0
	for job := range outQ {
		if job.canceled {
			canceled++
			continue
		}
		if scanHist != nil {
			scanHist.ObserveSince(job.start)
		}
		finish(scan, job.res, job.stats, time.Since(job.start))
		prog.Done()
		scans.Inc()
	}

	ps := probes.Stats()
	r.Obs.Counter("scanner.dedup.hits").Add(ps.Hits)
	r.Obs.Counter("scanner.dedup.misses").Add(ps.Misses)
	runSpan.End()
	r.Events.Emit("scan.run.end", map[string]any{
		"domains": len(domains), "completed": len(results) - canceled, "canceled": canceled,
	})
	return results
}
