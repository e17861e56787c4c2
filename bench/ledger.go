package bench

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"time"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/dnsmsg"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/smtpclient"
	"github.com/netsecurelab/mtasts/internal/store"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// The isolated ledger (instrument B) calls each layer's public function
// directly, single-threaded, on domains sampled from the workload's own
// population against the same substrate, and reports time, allocations
// and bytes per operation the way testing.AllocsPerRun does: MemStats
// deltas around the loop.

// cost is one ledger row.
type cost struct{ ns, allocs, bytes float64 }

// measureOK is measure for pure functions, which cannot fail and are
// timed warm: one untimed pass first, so the row is not page faults and
// first-call initialization.
func measureOK(n int, f func(i int)) cost {
	for i := 0; i < n; i++ {
		f(i)
	}
	//lint:ignore errdrop f never fails, so measure cannot either
	c, _ := measure(n, func(i int) error { f(i); return nil })
	return c
}

// measure runs f(0..n-1) once and returns the per-call cost.
func measure(n int, f func(i int) error) (cost, error) {
	if n == 0 {
		return cost{}, nil
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return cost{}, err
		}
	}
	took := time.Since(start)
	runtime.ReadMemStats(&b)
	k := float64(n)
	return cost{float64(took) / k, float64(b.Mallocs-a.Mallocs) / k, float64(b.TotalAlloc-a.TotalAlloc) / k}, nil
}

func poolFromPEM(pem string) (*x509.CertPool, error) {
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM([]byte(pem)) {
		return nil, errors.New("bench: substrate handed back no CA certificate")
	}
	return pool, nil
}

// weekPrefix is the campaign layout's record prefix for a job's results.
func weekPrefix(job string) string { return "c/" + job + "/w/0000/d/" }

// storeLedger measures the rows that need the traced repetition's
// populated store: record scans, snapshot export, log replay, and the
// TLSRPT join (posting one report first on workloads whose path posts
// none).
func storeLedger(e *env, svc *service, runs []jobRun) (map[string]float64, error) {
	v := make(map[string]float64)
	c := &client{http: e.hc, base: svc.base}
	sample := runs[:min(len(runs), 5)]
	var scratch jobRun

	if e.world.Live() {
		report, err := reportFor(e.world, 0)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := c.ingest(&scratch, report); err != nil {
			return nil, err
		}
		v["tlsrpt.http_ingest_ms"] = ms(time.Since(start))
	}
	var plain, joined time.Duration
	lines := 0
	for i := range sample {
		run := sample[i]
		for _, join := range []bool{false, true} {
			if _, err := c.results(&run, join); err != nil {
				return nil, err
			}
			if join {
				joined += run.End.Sub(run.Results)
			} else {
				plain += run.End.Sub(run.Results)
				lines += len(run.Domains)
			}
		}
	}
	v["tlsrpt.join_us_per_domain"] = us(joined-plain) / float64(lines)

	scan, err := measure(len(sample), func(i int) error {
		return svc.disk.Scan(weekPrefix(sample[i].ID), func(string, []byte) error { return nil })
	})
	if err != nil {
		return nil, err
	}
	snap, err := measure(len(sample), func(i int) error {
		return campaign.WriteSnapshot(io.Discard, svc.disk, sample[i].ID, 0)
	})
	if err != nil {
		return nil, err
	}
	perJob := float64(lines) / float64(len(sample))
	v["store.scan_ns_per_record"] = scan.ns / perJob
	v["campaign.snapshot_ns_per_record"] = snap.ns / perJob

	// Replay: close everything, time a bare OpenDisk of the directory,
	// then bring the service back for the recovery cycles.
	if err := svc.closeStore(); err != nil {
		return nil, err
	}
	start := time.Now()
	disk, err := store.OpenDisk(svc.dir)
	took := time.Since(start)
	if err != nil {
		return nil, err
	}
	keys, err := store.Len(disk, "")
	if err = errors.Join(err, disk.Close()); err != nil {
		return nil, err
	}
	v["store.replay_ns_per_record"] = float64(took) / float64(keys)
	return v, svc.open()
}

// sampleOf draws up to n items by a seeded shuffle.
func sampleOf[T any](rng *rand.Rand, in []T, n int) []T {
	out := append([]T(nil), in...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:min(n, len(out))]
}

// isolatedLedger measures every instrument-B row that needs no store.
func isolatedLedger(e *env) (v map[string]float64, err error) {
	w := e.world
	rng := rand.New(rand.NewSource(w.Seed + 1))
	v = make(map[string]float64)

	// Pure functions, on the workload's own artifacts.
	var all []string
	for _, job := range w.Jobs {
		all = append(all, job...)
	}
	names := sampleOf(rng, all, ledgerSample)
	arts := make([]scanner.Artifacts, len(names))
	results := make([]scanner.DomainResult, len(names))
	var bodies [][]byte
	var txts [][]string
	for i, n := range names {
		arts[i] = w.arts[n]
		results[i] = scanner.ScanArtifacts(arts[i], w.Now)
	}
	for _, n := range all {
		a := w.arts[n]
		if len(bodies) < ledgerSample && len(a.PolicyBody) > 0 {
			bodies = append(bodies, a.PolicyBody)
		}
		if len(txts) < ledgerSample && len(a.TXT) > 0 {
			txts = append(txts, a.TXT)
		}
	}
	c := measureOK(len(arts), func(i int) { scanner.ScanArtifacts(arts[i], w.Now) })
	v["scanner.scan_artifacts_ns"] = c.ns
	v["scanner.scan_artifacts_allocs"] = c.allocs
	c, err = measure(len(results), func(i int) error {
		rec := campaign.FromResult(&results[i])
		_, err := rec.Encode()
		return err
	})
	if err != nil {
		return nil, err
	}
	v["campaign.encode_ns_per_record"] = c.ns
	// The parsers return verdicts, not failures: a defective body is a
	// measured input like any other.
	c = measureOK(len(bodies), func(i int) {
		//lint:ignore errdrop the ledger times the parser; a syntax verdict is a valid outcome
		mtasts.ParsePolicy(bodies[i])
	})
	v["mtasts.parse_policy_ns"] = c.ns
	c = measureOK(len(txts), func(i int) {
		//lint:ignore errdrop the ledger times the parser; an invalid-record verdict is a valid outcome
		mtasts.DiscoverRecord(txts[i])
	})
	v["mtasts.parse_record_ns"] = c.ns
	report, err := reportFor(w, 0)
	if err != nil {
		return nil, err
	}
	c, err = measure(ledgerSample, func(int) error { _, err := tlsrpt.IngestReport(report); return err })
	if err != nil {
		return nil, err
	}
	v["tlsrpt.ingest_us"] = c.ns / 1000

	// dnsmsg, on the answers this population's names get.
	raws, err := dnsAnswers(e, arts)
	if err != nil {
		return nil, err
	}
	msgs := make([]*dnsmsg.Message, len(raws))
	c, err = measure(len(raws), func(i int) (err error) { msgs[i], err = dnsmsg.Unpack(raws[i]); return err })
	if err != nil {
		return nil, err
	}
	v["dnsmsg.unpack_ns"] = c.ns
	v["dnsmsg.unpack_allocs"] = c.allocs
	c, err = measure(len(msgs), func(i int) error { _, err := msgs[i].Pack(); return err })
	if err != nil {
		return nil, err
	}
	v["dnsmsg.pack_ns"] = c.ns
	v["dnsmsg.pack_allocs"] = c.allocs

	// Socket layers. service_jobs has none below the scanner seam; its
	// rows are measured off-path against a ledger-sized selfhosted world
	// (bench/README.md says why).
	lw, sub := w, e.sub
	if !w.Live() {
		scale := float64(ledgerSample) / selfhostedDomains
		if lw, err = Generate(Selfhosted, w.Seed, scale); err != nil {
			return nil, err
		}
		argv, env := e.cfg.Substrate(Selfhosted, w.Seed, scale)
		if sub, err = StartSubstrate(argv, env); err != nil {
			return nil, err
		}
		defer func() { err = errors.Join(err, sub.Close()) }()
	}
	return v, socketLedger(lw, sub, rng, v)
}

// dnsAnswers returns one packed MX answer and one packed TXT answer per
// sampled domain: fetched from the substrate over UDP when there is one,
// built from the artifacts (what an authoritative server would send)
// when the workload is offline.
func dnsAnswers(e *env, arts []scanner.Artifacts) ([][]byte, error) {
	var raws [][]byte
	for i, a := range arts {
		for _, q := range []struct {
			name string
			t    dnsmsg.Type
		}{{a.Domain, dnsmsg.TypeMX}, {"_mta-sts." + a.Domain, dnsmsg.TypeTXT}} {
			query := dnsmsg.NewQuery(uint16(i), q.name, q.t)
			if e.sub != nil {
				raw, err := exchangeUDP(e.sub.DNS, query)
				if err != nil {
					return nil, err
				}
				raws = append(raws, raw)
				continue
			}
			resp := &dnsmsg.Message{Header: dnsmsg.Header{ID: query.Header.ID, Response: true, Authoritative: true}, Questions: query.Questions}
			if q.t == dnsmsg.TypeMX {
				for j, mx := range a.MXHosts {
					resp.Answers = append(resp.Answers, rr(q.name, q.t, dnsmsg.MXData{Preference: uint16(10 * (j + 1)), Host: mx}))
				}
			} else {
				for _, txt := range a.TXT {
					resp.Answers = append(resp.Answers, rr(q.name, q.t, dnsmsg.NewTXT(txt)))
				}
			}
			raw, err := resp.Pack()
			if err != nil {
				return nil, err
			}
			raws = append(raws, raw)
		}
	}
	return raws, nil
}

// exchangeUDP sends one query to the substrate's DNS server and returns
// the raw answer.
func exchangeUDP(addr string, query *dnsmsg.Message) ([]byte, error) {
	wire, err := query.Pack()
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(liveTimeout)); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	return buf[:n], err
}

// socketLedger measures the resolver, the policy fetcher and the SMTP
// prober against the substrate.
func socketLedger(w *World, sub *Substrate, rng *rand.Rand, v map[string]float64) error {
	ctx := context.Background()
	roots, err := poolFromPEM(sub.CAPEM)
	if err != nil {
		return err
	}
	var healthy, broken []*domainSpec
	for _, d := range w.specs {
		switch {
		case !d.Adopter:
		case d.Defect >= defPolicyCertWrongName && d.Defect <= defBodyGarbage:
			broken = append(broken, d)
		default:
			healthy = append(healthy, d)
		}
	}
	healthy, broken = sampleOf(rng, healthy, ledgerSample), sampleOf(rng, broken, ledgerSample)
	any := sampleOf(rng, w.specs, ledgerSample)

	// resolver: LookupMX + LookupTXT per sampled domain. A name that
	// does not exist is an answer, not a failure.
	lookups := func(c *resolver.Client) func(i int) error {
		return func(i int) error {
			d := any[i/2]
			var err error
			if i%2 == 0 {
				_, err = c.LookupMX(ctx, d.Name)
			} else {
				_, err = c.LookupTXT(ctx, "_mta-sts."+d.Name)
			}
			if resolver.IsNotFound(err) {
				return nil
			}
			return err
		}
	}
	cold := resolver.New(sub.DNS)
	cold.Cache = nil
	c, err := measure(2*len(any), lookups(cold))
	if err != nil {
		return err
	}
	v["resolver.lookup_uncached_us"] = c.ns / 1000
	v["resolver.lookup_uncached_allocs"] = c.allocs
	v["resolver.lookup_uncached_kb"] = c.bytes / 1024
	warm := resolver.New(sub.DNS)
	if _, err := measure(2*len(any), lookups(warm)); err != nil {
		return err
	}
	if c, err = measure(2*len(any), lookups(warm)); err != nil {
		return err
	}
	v["resolver.lookup_cached_ns"] = c.ns

	// mtasts: every fetch resolves through the warm client, so the DNS
	// stage costs a cache hit and the rows below are TCP + TLS + HTTP +
	// parse.
	fetcher := &mtasts.Fetcher{
		Resolver: mtasts.AddrResolverFunc(func(ctx context.Context, host string) ([]string, error) {
			addrs, err := warm.LookupAddrs(ctx, host, true)
			out := make([]string, len(addrs))
			for i, a := range addrs {
				out[i] = a.String()
			}
			return out, err
		}),
		RootCAs:      roots,
		Timeout:      liveTimeout,
		Port:         sub.HTTPSPort,
		SessionCache: tls.NewLRUClientSessionCache(2 * ledgerSample),
	}
	for _, d := range append(append([]*domainSpec(nil), healthy...), broken...) {
		//lint:ignore errdrop warming the resolver cache; the NXDOMAIN defect fails here by design
		fetcher.Resolver.ResolveAddrs(ctx, mtasts.PolicyHost(d.Name))
	}
	fetch := func(set []*domainSpec, wantErr bool) func(i int) error {
		return func(i int) error {
			_, _, err := fetcher.Fetch(ctx, set[i].Name)
			if (err != nil) != wantErr {
				return fmt.Errorf("bench: ledger fetch of %s (%s): err=%v", set[i].Name, set[i].Defect, err)
			}
			return nil
		}
	}
	if c, err = measure(len(healthy), fetch(healthy, false)); err != nil {
		return err
	}
	v["mtasts.fetch_cold_us"] = c.ns / 1000
	v["mtasts.fetch_cold_allocs"] = c.allocs
	v["mtasts.fetch_cold_kb"] = c.bytes / 1024
	if c, err = measure(len(healthy), fetch(healthy, false)); err != nil {
		return err
	}
	v["mtasts.fetch_resumed_us"] = c.ns / 1000
	if c, err = measure(len(broken), fetch(broken, true)); err != nil {
		return err
	}
	v["mtasts.fetch_fail_us"] = c.ns / 1000

	// smtpclient: one probe per MX host of the healthy sample.
	prober := &smtpclient.Prober{HeloName: "mtasts-scan.invalid", Roots: roots, Timeout: liveTimeout}
	var mxs []mxHost
	for _, d := range healthy {
		mxs = append(mxs, d.MX...)
	}
	mxs = mxs[:min(len(mxs), ledgerSample)]
	if c, err = measure(len(mxs), func(i int) error {
		addr := net.JoinHostPort(smtpAddr(mxs[i].Kind), strconv.Itoa(sub.SMTPPort))
		res := prober.ProbeAddr(ctx, mxs[i].Name, addr)
		if !res.Connected {
			return fmt.Errorf("bench: ledger probe of %s: %w", mxs[i].Name, res.Err)
		}
		return nil
	}); err != nil {
		return err
	}
	v["smtpclient.probe_us"] = c.ns / 1000
	v["smtpclient.probe_allocs"] = c.allocs
	v["smtpclient.probe_kb"] = c.bytes / 1024
	return nil
}
