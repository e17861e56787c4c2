package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/scansvc"
)

// Config selects one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Scale is the common population factor (DefaultScale if 0).
	Scale float64
	// Seconds is how long each phase keeps measuring: repetitions repeat
	// until it has elapsed, and at least minReps times.
	Seconds float64
	// EndToEnd runs the untraced phase, Layers the traced one.
	EndToEnd, Layers bool
	// Quick is the smoke test's budget: one set-up, one repetition per
	// phase, whatever Seconds says. Its numbers mean nothing.
	Quick bool
	// WorkDir holds every file the run creates (store directories, the
	// CA file, trace-<workload>.jsonl). It is created if missing.
	WorkDir string
	// Substrate returns the command line and extra environment that run
	// this program in its substrate role for the given world.
	Substrate func(workload string, seed int64, scale float64) (argv, env []string)
	// Log receives the human-readable report.
	Log io.Writer
}

const (
	minReps        = 3
	setupRuns      = 3
	readbackFor    = 500 * time.Millisecond
	recoveryCycles = 9
	ledgerSample   = 200
)

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports. Metrics holds the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one, or both.
type Result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Scale     float64          `json:"scale"`
	NProc     int              `json:"nproc"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// env is one set-up benchmark: the world, its substrate, and the
// scanner builder every repetition starts from.
type env struct {
	cfg   Config
	world *World
	sub   *Substrate // nil for service_jobs
	build func() (scanner.Scanner, error)
	hc    *http.Client
}

// close stops the substrate child and removes the CA file it handed
// over.
func (e *env) close() error {
	e.hc.CloseIdleConnections()
	if e.sub == nil {
		return nil
	}
	return errors.Join(e.sub.Close(), os.Remove(caPath(e.cfg.WorkDir)))
}

// setUp is everything that precedes timing: generate the world, start
// the substrate child, and run repetition 0 — the untimed warm-up that
// also makes the policy host mint its lazily issued per-SNI
// certificates. Its duration is setup_s.
func setUp(cfg Config) (*env, time.Duration, error) {
	start := time.Now()
	w, err := Generate(cfg.Workload, cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, 0, err
	}
	e := &env{cfg: cfg, world: w, hc: newHTTPClient(Clients(w))}
	if w.Live() {
		argv, env := cfg.Substrate(cfg.Workload, cfg.Seed, cfg.Scale)
		if e.sub, err = StartSubstrate(argv, env); err != nil {
			return nil, 0, err
		}
		if err := os.WriteFile(caPath(cfg.WorkDir), []byte(e.sub.CAPEM), 0o600); err != nil {
			return nil, 0, errors.Join(err, e.close())
		}
		e.build = liveScanner(e.sub.Endpoints, caPath(cfg.WorkDir))
	} else {
		e.build = func() (scanner.Scanner, error) { return w.Offline, nil }
	}
	warm, err := e.repetition(nil, false)
	if err == nil && warm.failed > 0 {
		err = fmt.Errorf("bench: warm-up repetition failed the oracle (%d of %d): %w", warm.failed, warm.attempted, warm.firstErr)
	}
	if err != nil {
		return nil, 0, errors.Join(err, e.close())
	}
	return e, time.Since(start), nil
}

// repMeasure is one repetition's measurements.
type repMeasure struct {
	wall                   time.Duration
	cpu                    time.Duration
	mallocs, allocBytes    uint64
	domains                int
	storeBytes             int64
	readbackLinesPerSec    float64
	recovery               []time.Duration
	queries, conns         int
	attempted, failed      int
	firstErr               error
	runs                   []jobRun
	spans                  []Span
	ledger                 map[string]float64
	windowStart, windowEnd time.Time
	spanLo, spanHi         int64 // the window on the tracer's clock
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repetition runs the whole path once on a fresh store and a fresh
// scanner: submit every job, poll, stream the results back (the timed
// window), then check them against the oracle. With full set it goes on
// to the read-back and recovery measurements.
func (e *env) repetition(tr *tracer, full bool) (m repMeasure, err error) {
	svc, err := startService(e.cfg.WorkDir, e.build, tr)
	if err != nil {
		return m, err
	}
	defer func() { err = errors.Join(err, svc.stop()) }()

	var c0, c1 Counters
	if e.sub != nil {
		if c0, err = e.sub.Counters(); err != nil {
			return m, err
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()

	m.runs = drive(e.world, svc, e.hc, tr)

	end := time.Now()
	m.wall = end.Sub(start)
	m.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	m.mallocs, m.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	if e.sub != nil {
		if c1, err = e.sub.Counters(); err != nil {
			return m, err
		}
		m.queries, m.conns = c1.Queries-c0.Queries, c1.Conns-c0.Conns
	}
	m.domains = e.world.Domains()
	m.attempted, m.failed, m.firstErr = check(e.world, m.runs)
	m.storeBytes = svc.disk.SizeBytes()
	if m.failed > 0 || !full {
		return m, nil
	}

	atLeast := readbackFor
	if e.cfg.Quick {
		atLeast = 0
	}
	if m.readbackLinesPerSec, err = readBack(svc, e.hc, m.runs, atLeast); err != nil {
		return m, err
	}
	if tr != nil {
		// The traced repetition hands its populated store to the ledger
		// before the recovery cycles reopen it.
		if m.ledger, err = storeLedger(e, svc, m.runs); err != nil {
			return m, err
		}
		m.spans, m.spanLo, m.spanHi = tr.spans, tr.since(start), tr.since(end)
	}
	last := m.runs[len(m.runs)-1].ID
	for i := 0; i < recoveryCycles; i++ {
		cycle := time.Now()
		if err := svc.restart(); err != nil {
			return m, err
		}
		probe := jobRun{}
		out, err := (&client{http: e.hc, base: svc.base}).do(&probe, http.MethodGet, "/api/v1/jobs/"+last, nil, http.StatusOK)
		if err != nil {
			return m, err
		}
		var job scansvc.Job
		if err := json.Unmarshal(out, &job); err != nil || job.State != scansvc.StateDone {
			return m, fmt.Errorf("bench: job %s not done after recovery (%v): %s", last, err, out)
		}
		m.recovery = append(m.recovery, time.Since(cycle))
	}
	return m, nil
}

// readBack re-reads finished jobs' plain results back to back for
// atLeast (cycling over the jobs, twice at least) and returns result
// lines per second.
func readBack(svc *service, hc *http.Client, runs []jobRun, atLeast time.Duration) (float64, error) {
	buf := make([]byte, 64<<10)
	lines := 0
	start := time.Now()
	for i := 0; time.Since(start) < atLeast || i < 2; i++ {
		resp, err := hc.Get(svc.base + "/api/v1/jobs/" + runs[i%len(runs)].ID + "/results")
		if err != nil {
			return 0, err
		}
		for {
			n, err := resp.Body.Read(buf)
			lines += bytes.Count(buf[:n], []byte{'\n'})
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, errors.Join(err, resp.Body.Close())
			}
		}
		if err := resp.Body.Close(); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("bench: read-back of %s = %d", runs[i%len(runs)].ID, resp.StatusCode)
		}
	}
	return float64(lines) / time.Since(start).Seconds(), nil
}

// series is one metric's per-repetition samples.
type series []float64

func (s series) sorted() series {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

func (s series) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quantile returns the q-quantile by nearest rank.
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	i := int(q*float64(len(c))+0.5) - 1
	return c[min(max(i, 0), len(c)-1)]
}

// spread is (max-min)/median.
func (s series) spread() float64 {
	med := s.median()
	if med == 0 {
		return 0
	}
	return (slices.Max(s) - slices.Min(s)) / med
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Run executes one benchmark run and reports it on cfg.Log.
func Run(cfg Config) (*Result, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = DefaultScale
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	res := &Result{Workload: cfg.Workload, Seed: cfg.Seed, Scale: cfg.Scale, NProc: runtime.NumCPU(),
		Correct: true, Metrics: make(map[string]Value)}

	// setup_s is the median of several complete set-ups; the last one
	// stays up for the measurements.
	var e *env
	var setups series
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		next, took, err := setUp(cfg)
		if err != nil {
			return nil, err
		}
		e = next
		setups = append(setups, took.Seconds())
		if !cfg.EndToEnd || cfg.Quick {
			break // a traced run reports no setup_s; one set-up is enough
		}
	}
	w := e.world
	sub := "none (offline artifact scanner)"
	if e.sub != nil {
		sub = fmt.Sprintf("child pid %d", e.sub.PID)
	}
	fmt.Fprintf(cfg.Log, "mtasts-bench: workload=%s seed=%d scale=%g; traffic crossed loopback (real sockets on 127.0.0.0/8, no real link); nproc=%d workers/stage=%d clients=%d (closed loop) jobs=%d domains=%d substrate=%s %s\n",
		w.Workload, w.Seed, w.Scale, runtime.NumCPU(), Workers(), Clients(w), len(w.Jobs), w.Domains(), sub, runtime.Version())

	if w.Live() {
		fmt.Fprintf(cfg.Log, "population: %v\n", w.DefectCounts())
	}

	var runErr error
	if cfg.EndToEnd {
		runErr = e.endToEnd(res, setups)
	}
	if runErr == nil && cfg.Layers {
		runErr = e.layers(res)
	}
	if err := errors.Join(runErr, e.close()); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(cfg.Log, "%-32s %12.6f %-6s (%d failed of %d attempted)\n", "failed_share",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
	return res, nil
}

// more reports whether a phase that has done n rounds since start runs
// another: until cfg.Seconds have passed and at least atLeast times, or
// exactly once in a Quick run.
func (e *env) more(n, atLeast int, start time.Time) bool {
	if e.cfg.Quick {
		return n == 0
	}
	return n < atLeast || time.Since(start).Seconds() < e.cfg.Seconds
}

// account folds one repetition's oracle outcome into the result.
func (r *Result) account(cfg Config, m *repMeasure) {
	r.Attempted += m.attempted
	r.Failed += m.failed
	if m.firstErr != nil {
		fmt.Fprintf(cfg.Log, "ORACLE: %v\n", m.firstErr)
	}
}

// endToEnd is the untraced phase: timed repetitions until cfg.Seconds
// have passed (at least minReps), each end-to-end metric the median.
func (e *env) endToEnd(res *Result, setups series) error {
	var tput, cpu, allocs, allocKB, readback, recovery, storeB series
	start := time.Now()
	for rep := 0; e.more(rep, minReps, start); rep++ {
		m, err := e.repetition(nil, true)
		if err != nil {
			return err
		}
		res.account(e.cfg, &m)
		if m.failed > 0 {
			return nil
		}
		n := float64(m.domains)
		rec := make(series, len(m.recovery))
		for i, d := range m.recovery {
			rec[i] = ms(d)
		}
		fmt.Fprintf(e.cfg.Log, "rep %2d: %8.1f domains/s %9.1f cpu-us/domain %8.1f allocs/domain  readback %7.1f k/s  recovery %.2f ms\n",
			rep, n/m.wall.Seconds(), us(m.cpu)/n, float64(m.mallocs)/n, m.readbackLinesPerSec/1000, rec.median())
		recovery = append(recovery, rec...)
		tput = append(tput, n/m.wall.Seconds())
		cpu = append(cpu, us(m.cpu)/n)
		allocs = append(allocs, float64(m.mallocs)/n)
		allocKB = append(allocKB, float64(m.allocBytes)/1024/n)
		readback = append(readback, m.readbackLinesPerSec/1000)
		storeB = append(storeB, float64(m.storeBytes)/n)
	}
	for _, row := range []struct {
		name string
		s    series
		v    float64
	}{
		{"setup_s", setups, setups.median()},
		{"domains_per_s", tput, tput.median()},
		{"cpu_us_per_domain", cpu, cpu.median()},
		{"allocs_per_domain", allocs, allocs.median()},
		{"alloc_kb_per_domain", allocKB, allocKB.median()},
		{"peak_rss_mb", nil, peakRSSMB()},
		{"readback_kdomains_per_s", readback, readback.median()},
		{"recovery_ms", recovery, recovery.median()},
		{"store_bytes_per_domain", storeB, storeB.median()},
	} {
		res.put(e.cfg.Log, row.name, row.v, row.s)
	}
	return nil
}

// put records one metric and prints it with its unit.
func (r *Result) put(log io.Writer, name string, v float64, samples series) {
	unit := unitOf(name)
	r.Metrics[name] = Value{Value: v, Unit: unit}
	note := ""
	if len(samples) > 1 {
		note = fmt.Sprintf("(median of %d, spread %.1f%%)", len(samples), 100*samples.spread())
	}
	fmt.Fprintf(log, "%-32s %12.4f %-6s %s\n", name, v, unit, note)
}
