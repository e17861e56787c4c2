package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/scansvc"
	"github.com/netsecurelab/mtasts/internal/store"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// The fixed configuration, recorded in bench/README.md and never varied
// per workload.
const (
	maxWorkers    = 4 // RunnerSpec.Workers = min(nproc, maxWorkers)
	stageWorkers  = "auto"
	dedup         = false // the shipped default
	maxConcurrent = 2
	liveRate      = 0 // the 100 qps default would measure the limiter
	liveTimeout   = 5 * time.Second
	liveRetries   = 1
	pollEvery     = time.Millisecond
	tenant        = "bench"
)

// Workers is the per-stage pool size on this machine.
func Workers() int {
	if n := runtime.NumCPU(); n < maxWorkers {
		return n
	}
	return maxWorkers
}

// Clients is how many closed-loop HTTP clients drive a workload: one
// job list for the scan workloads, nproc submitters for service_jobs.
func Clients(w *World) int {
	if len(w.Jobs) == 1 {
		return 1
	}
	return runtime.NumCPU()
}

// service is the program under test, wired exactly as
// cmd/mtasts-serve/main.go wires it: a disk store, the scanner, the
// scansvc.Service, and its handler behind a real loopback listener.
type service struct {
	dir   string
	build func() (scanner.Scanner, error)
	tr    *tracer

	disk    *store.Disk
	svc     *scansvc.Service
	handler atomic.Pointer[http.Handler]
	httpSrv *http.Server
	served  chan error
	base    string
}

// startService opens a fresh store under workDir and serves the API on
// 127.0.0.1:0. With a tracer, the scanner and the store are wrapped at
// their seams.
func startService(workDir string, build func() (scanner.Scanner, error), tr *tracer) (*service, error) {
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, build: build, tr: tr}
	if err := s.open(); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.closeStore(), os.RemoveAll(dir))
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*s.handler.Load()).ServeHTTP(w, r)
	})}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// open is what a process start does: OpenDisk (replaying the log),
// build the scanner, Service.Start (recovering the queue), mount the
// handler beside the observability endpoints.
func (s *service) open() error {
	disk, err := store.OpenDisk(s.dir)
	if err != nil {
		return err
	}
	scan, err := s.build()
	if err != nil {
		return errors.Join(err, disk.Close())
	}
	var st store.Store = disk
	if s.tr != nil {
		st = &tracedStore{inner: disk, t: s.tr}
		scan = &tracedScanner{inner: scan.(scanner.StageScanner), t: s.tr}
	}
	reg := obs.NewRegistry()
	svc := &scansvc.Service{
		Store:         st,
		Scan:          scan,
		Runner:        scansvc.RunnerSpec{Workers: Workers(), StageWorkers: stageWorkers, Dedup: dedup},
		Obs:           reg,
		MaxConcurrent: maxConcurrent,
	}
	if err := svc.Start(); err != nil {
		return errors.Join(err, disk.Close())
	}
	mux := reg.NewServeMux()
	mux.Handle("/api/v1/", svc.Handler())
	var h http.Handler = mux
	s.disk, s.svc = disk, svc
	s.handler.Store(&h)
	return nil
}

func (s *service) closeStore() error {
	return errors.Join(s.svc.Close(), s.disk.Close())
}

// restart is one recovery cycle's server side: graceful stop, then a
// cold open of the same directory.
func (s *service) restart() error {
	if err := s.closeStore(); err != nil {
		return err
	}
	return s.open()
}

// stop shuts the listener down, closes the service and removes the
// store directory.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serveErr := <-s.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return errors.Join(err, s.closeStore(), os.RemoveAll(s.dir))
}

// liveScanner returns the builder for a fresh scanner.Live against the
// substrate: cold resolver cache, cold TLS session cache.
func liveScanner(ep Endpoints, caFile string) func() (scanner.Scanner, error) {
	return func() (scanner.Scanner, error) {
		return scansvc.LiveSpec{
			DNSAddr:   ep.DNS,
			Rate:      liveRate,
			HTTPSPort: ep.HTTPSPort,
			SMTPPort:  ep.SMTPPort,
			Timeout:   liveTimeout,
			Retries:   liveRetries,
			CAFile:    caFile,
		}.Build(obs.NewRegistry(), nil)
	}
}

// caPath is where the substrate's CA is stored for LiveSpec.CAFile.
func caPath(workDir string) string {
	return filepath.Join(workDir, fmt.Sprintf("ca-%d.pem", os.Getpid()))
}

// jobRun is one job as its client saw it.
type jobRun struct {
	Index    int
	ID       string
	Domains  []string
	Submit   time.Time // first byte of the POST
	Results  time.Time // first byte of the results GET
	End      time.Time // last byte of the results stream
	Body     []byte    // the results stream, checked after the clock stops
	Joined   bool
	Requests int
	HTTPErrs int
	Err      error
}

// client is one closed-loop HTTP caller.
type client struct {
	http *http.Client
	base string
	tr   *tracer
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * conns, MaxIdleConns: 4 * conns}}
}

// span records an HTTP span when tracing is on.
func (c *client) span(name string, start time.Time, job string, n int) {
	if c.tr != nil {
		c.tr.add(Span{Name: name, Start: c.tr.since(start), End: c.tr.since(time.Now()), Job: job, N: n})
	}
}

// do issues one request and returns the body; any status but want is an
// error and counts in run.HTTPErrs.
func (c *client) do(run *jobRun, method, path string, body []byte, want int) ([]byte, error) {
	run.Requests++
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		run.HTTPErrs++
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("bench: %s %s = %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(out))
	}
	if err != nil {
		run.HTTPErrs++
	}
	return out, err
}

// ingest posts one TLSRPT report.
func (c *client) ingest(run *jobRun, report []byte) error {
	start := time.Now()
	_, err := c.do(run, http.MethodPost, "/api/v1/tlsrpt", report, http.StatusAccepted)
	c.span(spanIngest, start, "", 0)
	return err
}

// runJob is the measured path: POST /api/v1/jobs, poll the job every
// millisecond until done, read /results to EOF.
func (c *client) runJob(run *jobRun) {
	body, err := json.Marshal(map[string]any{"tenant": tenant, "domains": run.Domains})
	if err != nil {
		run.Err = err
		return
	}
	run.Submit = time.Now()
	out, err := c.do(run, http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted)
	var job scansvc.Job
	if err == nil {
		err = json.Unmarshal(out, &job)
	}
	if err != nil {
		run.Err = err
		return
	}
	run.ID = job.ID
	c.span(spanSubmit, run.Submit, run.ID, 0)

	for job.State != scansvc.StateDone {
		if job.State.Terminal() {
			run.Err = fmt.Errorf("bench: job %s ended %s: %s", job.ID, job.State, job.Error)
			return
		}
		time.Sleep(pollEvery)
		polled := time.Now()
		out, err := c.do(run, http.MethodGet, "/api/v1/jobs/"+run.ID, nil, http.StatusOK)
		if err == nil {
			err = json.Unmarshal(out, &job)
		}
		c.span(spanPoll, polled, run.ID, 0)
		if err != nil {
			run.Err = err
			return
		}
	}
	run.Body, run.Err = c.results(run, run.Joined)
}

// results streams a job's results to EOF.
func (c *client) results(run *jobRun, joined bool) ([]byte, error) {
	path := "/api/v1/jobs/" + run.ID + "/results"
	if joined {
		path += "?join=tlsrpt"
	}
	run.Results = time.Now()
	body, err := c.do(run, http.MethodGet, path, nil, http.StatusOK)
	run.End = time.Now()
	c.span(spanResults, run.Results, run.ID, bytes.Count(body, []byte{'\n'}))
	return body, err
}

// reportFor renders the TLSRPT report posted alongside job i: one
// policy section for the job's report domain, with one failure class.
func reportFor(w *World, i int) ([]byte, error) {
	domain := w.ReportDomain[i]
	day := time.Date(2024, 1, 1+i%28, 0, 0, 0, 0, time.UTC)
	r := tlsrpt.NewReport("Bench Sender", "tls@sender.test", fmt.Sprintf("bench-%d-%05d", w.Seed, i), day, day.Add(24*time.Hour))
	r.AddSuccess(tlsrpt.PolicyTypeSTS, domain, int64(100+i))
	r.AddFailure(tlsrpt.PolicyTypeSTS, domain, tlsrpt.ResultCertificateExpired, "mx."+domain, int64(1+i%5))
	return r.Marshal()
}

// drive runs every job of the world through the service, closed loop,
// on Clients(w) clients, and returns the runs in job order. service_jobs
// posts each job's report first and reads its results joined.
func drive(w *World, s *service, hc *http.Client, tr *tracer) []jobRun {
	runs := make([]jobRun, len(w.Jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < Clients(w); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{http: hc, base: s.base, tr: tr}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runs) {
					return
				}
				run := &runs[i]
				run.Index, run.Domains = i, w.Jobs[i]
				if !w.Live() {
					run.Joined = true
					report, err := reportFor(w, i)
					if err == nil {
						err = c.ingest(run, report)
					}
					if err != nil {
						run.Err = err
						continue
					}
				}
				c.runJob(run)
			}
		}()
	}
	wg.Wait()
	return runs
}

// resultLine is the part of a streamed record the checker reads before
// comparing bytes.
type resultLine struct {
	Domain   string `json:"domain"`
	Canceled bool   `json:"canceled"`
}

// joinedLine is the ?join=tlsrpt envelope.
type joinedLine struct {
	Scan   json.RawMessage        `json:"scan"`
	TLSRPT *scansvc.TLSRPTSummary `json:"tlsrpt"`
}

// check compares every returned line with the oracle. attempted counts
// domains plus requests; failed counts wrong, canceled, missing and
// duplicate result lines, non-2xx or failed requests, and a report
// domain that came back without its TLSRPT evidence.
func check(w *World, runs []jobRun) (attempted, failed int, firstErr error) {
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := range runs {
		run := &runs[i]
		attempted += len(run.Domains) + run.Requests
		failed += run.HTTPErrs
		if run.Err != nil {
			note(run.Err)
			if run.Body == nil {
				failed += len(run.Domains)
				continue
			}
		}
		seen := make(map[string]bool, len(run.Domains))
		for _, line := range bytes.Split(bytes.TrimSuffix(run.Body, []byte{'\n'}), []byte{'\n'}) {
			rec := line
			var evidence *scansvc.TLSRPTSummary
			if run.Joined {
				var jl joinedLine
				if err := json.Unmarshal(line, &jl); err != nil {
					failed++
					note(fmt.Errorf("bench: job %s: undecodable joined line: %w", run.ID, err))
					continue
				}
				rec, evidence = jl.Scan, jl.TLSRPT
			}
			var rl resultLine
			if err := json.Unmarshal(rec, &rl); err != nil {
				failed++
				note(fmt.Errorf("bench: job %s: undecodable result line: %w", run.ID, err))
				continue
			}
			want, known := w.Expected(rl.Domain)
			switch {
			case !known || seen[rl.Domain]:
				failed++
				note(fmt.Errorf("bench: job %s: unexpected or duplicate result for %q", run.ID, rl.Domain))
			case rl.Canceled || !bytes.Equal(rec, want):
				failed++
				note(fmt.Errorf("bench: job %s: %s classified\n  got  %s\n  want %s", run.ID, rl.Domain, rec, want))
			case run.Joined && rl.Domain == w.ReportDomain[run.Index] && (evidence == nil || evidence.Reports < 1):
				failed++
				note(fmt.Errorf("bench: job %s: %s came back without its TLSRPT evidence", run.ID, rl.Domain))
			}
			seen[rl.Domain] = true
		}
		for _, d := range run.Domains {
			if !seen[d] {
				failed++
				note(fmt.Errorf("bench: job %s: no result for %s", run.ID, d))
			}
		}
	}
	return attempted, failed, firstErr
}
