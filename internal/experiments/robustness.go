// Robustness experiment: how well the scan pipeline's verdicts survive
// transient infrastructure failures. The paper's methodology (§4.1)
// re-scans unreachable domains before classifying them as broken; this
// experiment reproduces that requirement on a loopback substrate with a
// seeded fault injector, and checks two properties:
//
//   - classification robustness: with retries enabled, a fleet of healthy
//     MTA-STS deployments scanned through ~10% DNS loss, SERVFAIL/REFUSED
//     blips, truncation and mid-handshake connection resets yields ZERO
//     domains misclassified into a persistent error category;
//   - determinism: two runs with the same fault seed produce identical
//     per-domain verdicts and retry counts, so any failure reproduces.
//
// A third run with the same faults but retries disabled shows the
// counterfactual: the misclassification rate a single-attempt scanner
// would have reported.

package experiments

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/netsecurelab/mtasts/internal/dataset"
	"github.com/netsecurelab/mtasts/internal/faults"
	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
	"github.com/netsecurelab/mtasts/internal/smtpd"
)

// RobustnessConfig parameterizes RunRobustness. The zero value is usable:
// every field has a default.
type RobustnessConfig struct {
	// Domains is the number of healthy MTA-STS deployments to provision
	// (default 12). Every domain is fully valid, so any error category in
	// a scan result is by construction a misclassification.
	Domains int
	// Plan is the fault plan for the faulted runs. A zero plan (no rates
	// set) is replaced by DefaultFaultPlan(Seed).
	Plan faults.Plan
	// Seed seeds DefaultFaultPlan when Plan is zero (default 1).
	Seed int64
	// MaxAttempts bounds attempts per network operation in the
	// retries-enabled runs (default 4 — strictly greater than the plan's
	// MaxConsecutive, so recovery is guaranteed for injected faults).
	MaxAttempts int
	// RetryBase is the first backoff delay (default 5ms; the substrate is
	// loopback, so long waits only slow the experiment down).
	RetryBase time.Duration
	// DNSTimeout bounds each DNS exchange (default 250ms — an injected
	// packet drop costs one timeout before the retry).
	DNSTimeout time.Duration
	// Obs, when non-nil, receives the metrics of every layer.
	Obs *obs.Registry
	// StageWorkers sizes the staged run's pools (default 4 per stage).
	StageWorkers scanner.StageWorkers
}

func (c RobustnessConfig) withDefaults() RobustnessConfig {
	if c.Domains <= 0 {
		c.Domains = 12
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if !c.Plan.Active() {
		c.Plan = DefaultFaultPlan(c.Seed)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	if c.DNSTimeout <= 0 {
		c.DNSTimeout = 250 * time.Millisecond
	}
	return c
}

// DefaultFaultPlan is the blizzard the acceptance criterion names: ~10%
// DNS loss plus SERVFAIL/REFUSED blips, occasional truncation, and
// mid-handshake connection resets on both the policy host and the MXes.
func DefaultFaultPlan(seed int64) faults.Plan {
	return faults.Plan{
		Seed:        seed,
		DNSLoss:     0.10,
		DNSServFail: 0.05,
		DNSRefuse:   0.03,
		DNSTruncate: 0.05,
		ConnReset:   0.08,
		LatencyRate: 0.20,
		Latency:     2 * time.Millisecond,
		// Transient by construction: never more than 2 consecutive faults
		// per key, so MaxAttempts=4 always reaches a clean exchange.
		MaxConsecutive: 2,
	}
}

// RobustnessRun is one scan of the whole fleet under one condition.
type RobustnessRun struct {
	// Label names the condition ("baseline", "faults no-retry", ...).
	Label string
	// Summary is the aggregate over the run's results.
	Summary scanner.Summary
	// Misclassified lists domains (with reasons) that did not come back
	// fully healthy. The substrate is healthy, so for a robust scanner
	// this must be empty.
	Misclassified []string
	// Attempts/Retries/Recovered/GaveUp sum the per-domain retry
	// accounting over the fleet.
	Attempts, Retries, Recovered, GaveUp int64
	// FaultCounts is the injector's per-kind tally ("dns.drop",
	// "conn.reset", ...); nil for the baseline run.
	FaultCounts map[string]int64
	// Fingerprint canonically encodes every per-domain verdict and its
	// retry counts; two same-seed runs must produce equal fingerprints.
	Fingerprint string
}

// RobustnessReport is the full experiment outcome.
type RobustnessReport struct {
	// Plan is the fault plan the faulted runs used.
	Plan faults.Plan
	// Domains is the fleet size.
	Domains int
	// Baseline scanned with no faults installed.
	Baseline RobustnessRun
	// NoRetry scanned through the fault plan with single attempts — the
	// misclassification rate a retry-less scanner reports.
	NoRetry RobustnessRun
	// WithRetry holds two identically-seeded runs with retries enabled.
	WithRetry [2]RobustnessRun
	// Deterministic reports whether the two WithRetry fingerprints match.
	Deterministic bool
	// Staged is the concurrent scanner.Runner run through the same fault
	// plan with retries enabled. Its retry trace depends on how the
	// stages interleave, so fingerprint determinism does not apply — the
	// check is purely that no healthy domain is misclassified.
	Staged RobustnessRun
}

// Misclassified returns the union of misclassified domains across the
// retries-enabled runs.
func (r *RobustnessReport) Misclassified() []string {
	seen := make(map[string]bool)
	var out []string
	for _, run := range []*RobustnessRun{&r.WithRetry[0], &r.WithRetry[1], &r.Staged} {
		for _, d := range run.Misclassified {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Passed reports the acceptance criterion: a clean baseline, zero
// misclassifications with retries on, and cross-run determinism.
func (r *RobustnessReport) Passed() bool {
	return len(r.Baseline.Misclassified) == 0 &&
		len(r.Misclassified()) == 0 &&
		r.Deterministic
}

// Table renders the report for cmd/reproduce.
func (r *RobustnessReport) Table() *dataset.Table {
	t := &dataset.Table{
		Title:   fmt.Sprintf("Robustness: %d healthy domains through %s", r.Domains, r.Plan),
		Headers: []string{"run", "misclassified", "attempts", "retries", "recovered", "gave_up", "faults"},
	}
	row := func(run *RobustnessRun) {
		faultStr := "-"
		if run.FaultCounts != nil {
			faultStr = countsString(run.FaultCounts)
		}
		t.AddRow(run.Label, len(run.Misclassified), run.Attempts, run.Retries,
			run.Recovered, run.GaveUp, faultStr)
	}
	row(&r.Baseline)
	row(&r.NoRetry)
	row(&r.WithRetry[0])
	row(&r.WithRetry[1])
	row(&r.Staged)
	return t
}

func countsString(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// robustnessWorld is the fleet on a loopback Internet. ONE SMTP listener
// answers for every MX name — its certificate lists them all — so the
// injector's connection faults, keyed by the announced hostname, draw
// from a single sequence however many domains there are.
type robustnessWorld struct {
	net     *loopnet.Net
	domains []string
}

func buildRobustnessWorld(n int) (*robustnessWorld, error) {
	inet, err := loopnet.Start(context.Background())
	if err != nil {
		return nil, err
	}
	w := &robustnessWorld{net: inet}
	mxNames := make([]string, 0, n)
	for i := 0; i < n; i++ {
		domain := fmt.Sprintf("d%02d.test", i)
		mx := "mx." + domain
		w.domains = append(w.domains, domain)
		mxNames = append(mxNames, mx)
		inet.AddDomain(loopnet.Domain{
			Name: domain, MX: []string{mx}, TXT: []string{"v=STSv1; id=20260801;"},
			Tenant: &policysrv.Tenant{Policy: mtasts.Policy{
				Version: mtasts.Version, Mode: mtasts.ModeEnforce, MaxAge: 86400,
				MXPatterns: []string{mx},
			}},
		})
	}
	if _, err := inet.AddMX(smtpd.Behavior{Hostname: "mx.shared.test"}, mxNames...); err != nil {
		return nil, errors.Join(err, inet.Close())
	}
	return w, nil
}

// scan scans the whole fleet once under the given injector. The
// sequential runs call ScanDomain one domain at a time so the order of
// network operations — and therefore the injector's per-key fault
// sequences — is identical across runs; staged=true instead goes
// through the concurrent scanner.Runner, where only the classifications
// (not the interleaving-dependent retry counts) are expected to be
// stable.
func (w *robustnessWorld) scan(inj *faults.Injector, maxAttempts int, cfg RobustnessConfig, staged bool) []scanner.DomainResult {
	w.net.SetFaults(inj)
	defer w.net.SetFaults(nil)

	dns := resolver.New(w.net.DNS.Addr().String())
	dns.QueriesPerSocket = resolver.ScannerQueriesPerSocket
	dns.Timeout = cfg.DNSTimeout
	dns.MaxAttempts = maxAttempts
	dns.RetryBase = cfg.RetryBase
	dns.Obs = cfg.Obs
	roots := w.net.CA.Pool()
	live := &scanner.Live{
		DNS: dns,
		Fetcher: &mtasts.Fetcher{
			Resolver: scanner.TXTResolverAdapter{Client: dns}, RootCAs: roots,
			Port: w.net.Policy.Port(), Timeout: 5 * time.Second, Obs: cfg.Obs,
			MaxAttempts: maxAttempts, RetryBase: cfg.RetryBase,
			SessionCache: tls.NewLRUClientSessionCache(1024),
		},
		Prober: &smtpclient.Prober{
			HeloName: "robustness.test", Roots: roots,
			Port: w.net.SMTPPort, Timeout: 5 * time.Second, Obs: cfg.Obs,
			MaxAttempts: maxAttempts, RetryBase: cfg.RetryBase,
		},
		Obs: cfg.Obs,
	}
	if staged {
		runner := &scanner.Runner{
			Workers: 4, Scan: live, Obs: cfg.Obs,
			StageWorkers: cfg.StageWorkers,
		}
		return runner.Run(context.Background(), w.domains)
	}
	results := make([]scanner.DomainResult, 0, len(w.domains))
	for _, d := range w.domains {
		results = append(results, live.ScanDomain(context.Background(), d))
	}
	return results
}

// run reduces one scan of the fleet to its report row.
func (w *robustnessWorld) run(label string, inj *faults.Injector, maxAttempts int, cfg RobustnessConfig, staged bool) RobustnessRun {
	results := w.scan(inj, maxAttempts, cfg, staged)
	run := RobustnessRun{Label: label, Summary: scanner.Summarize(results)}
	var fp strings.Builder
	for i := range results {
		r := &results[i]
		if reason := misclassifyReason(r); reason != "" {
			run.Misclassified = append(run.Misclassified, r.Domain+": "+reason)
		}
		run.Attempts += r.Attempts
		run.Retries += r.Retries
		run.Recovered += r.RetryRecovered
		run.GaveUp += r.RetryGaveUp
		fmt.Fprintf(&fp, "%s cats=%v stage=%s mismatch=%s mx=%d invalid=%d attempts=%d retries=%d recovered=%d gaveup=%d\n",
			r.Domain, r.Categories(), r.PolicyStage.Key(), r.Mismatch.Kind,
			len(r.MXHosts), invalidMXProblems(r), r.Attempts, r.Retries,
			r.RetryRecovered, r.RetryGaveUp)
	}
	run.Fingerprint = fp.String()
	if inj != nil {
		run.FaultCounts = inj.Counts()
	}
	return run
}

// misclassifyReason reports why a result is not the fully-healthy verdict
// every substrate domain deserves, or "" when it is.
func misclassifyReason(r *scanner.DomainResult) string {
	switch {
	case r.Canceled:
		return "canceled"
	case r.MXLookupErr != nil:
		return fmt.Sprintf("mx lookup: %v", r.MXLookupErr)
	case !r.RecordPresent || !r.RecordValid:
		return fmt.Sprintf("record invalid: %v", r.RecordErr)
	case !r.PolicyOK:
		return "policy stage " + r.PolicyStage.Key()
	case len(r.MXHosts) != 1:
		return fmt.Sprintf("%d MX hosts", len(r.MXHosts))
	case len(r.MXNoSTARTTLS) > 0:
		return "MX reported no STARTTLS"
	case invalidMXProblems(r) > 0 || len(r.MXProblems) != 1:
		return fmt.Sprintf("MX problems: %v", r.MXProblems)
	case r.Misconfigured():
		return fmt.Sprintf("categories %v", r.Categories())
	}
	return ""
}

func invalidMXProblems(r *scanner.DomainResult) int {
	n := 0
	for _, p := range r.MXProblems {
		if !p.Valid() {
			n++
		}
	}
	return n
}

// RunRobustness provisions the substrate and executes four sequential
// runs — baseline (no faults), faulted without retries, and two
// identically seeded faulted runs with retries — plus one run of the
// same faults and retries through the concurrent scanner.Runner.
func RunRobustness(cfg RobustnessConfig) (*RobustnessReport, error) {
	cfg = cfg.withDefaults()
	w, err := buildRobustnessWorld(cfg.Domains)
	if err != nil {
		return nil, fmt.Errorf("robustness substrate: %w", err)
	}
	defer w.net.Close()

	rep := &RobustnessReport{Plan: cfg.Plan, Domains: cfg.Domains}
	rep.Baseline = w.run("baseline (no faults)", nil, cfg.MaxAttempts, cfg, false)
	rep.NoRetry = w.run("faults, no retries", faults.NewInjector(cfg.Plan), 1, cfg, false)
	rep.WithRetry[0] = w.run("faults + retries #1", faults.NewInjector(cfg.Plan), cfg.MaxAttempts, cfg, false)
	rep.WithRetry[1] = w.run("faults + retries #2", faults.NewInjector(cfg.Plan), cfg.MaxAttempts, cfg, false)
	rep.Deterministic = rep.WithRetry[0].Fingerprint == rep.WithRetry[1].Fingerprint
	rep.Staged = w.run("faults + retries, staged", faults.NewInjector(cfg.Plan), cfg.MaxAttempts, cfg, true)
	return rep, nil
}
