package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/experiments"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/simnet"
)

// Workload names. They are final: later issues cite them.
const (
	Census      = "census"
	Selfhosted  = "selfhosted"
	Hosted      = "hosted"
	ServiceJobs = "service_jobs"
)

// Workloads lists the four workloads in reporting order.
var Workloads = []string{Census, Selfhosted, Hosted, ServiceJobs}

// Full-size populations (ISSUE 11). Every run multiplies them by one
// common scale factor; DefaultScale is the factor the committed
// baseline and BENCHMARK.json use.
const (
	censusDomains     = 20000
	censusAdoptShare  = 0.02
	selfhostedDomains = 4000
	hostedDomains     = 4000
	hostedPoolHosts   = 50
	// serviceJobs is 160, not the issue's 400: each joined result line
	// costs one scan of the whole store index, so a repetition's cost
	// grows with the square of the job count (bench/README.md, "Sizes").
	serviceJobs       = 160
	serviceJobDomains = 500
	// simnetScale sizes the offline world service_jobs slices its jobs
	// from (~14k live adopters at the first component snapshot): large
	// enough that concurrently running jobs never share a domain.
	simnetScale = 0.25
	// DefaultScale is the common factor applied to every population so
	// one run fits the harness's per-run time cap on a 2-vCPU box while
	// census still spans several campaign shards.
	DefaultScale = 0.125
	// DefaultSeed is the seed the committed baseline was measured with.
	DefaultSeed = 1
	// dnsShards is how many zones the scan populations spread over. The
	// loopback authoritative server answers NXDOMAIN in time linear in
	// the zone, and finds the zone in time linear in their number, so a
	// square-root split keeps the substrate cheap next to the scanner.
	dnsShards = 64
)

// Zones and host names of the loopback Internet.
const (
	mxZone       = "mx.test"       // per-domain MX names (census, selfhosted)
	poolZone     = "mailpool.test" // shared provider MX pool (hosted)
	otherMXZone  = "other.test"    // what the name-mismatch certificate covers
	formerMXHost = "mx.oldhost.former-provider.test"
)

// defect is one way a deployment is broken. Every kind has a live form
// (what the substrate serves) and an offline form (scanner.Artifacts),
// and the oracle holds the two to the same verdict.
type defect int

const (
	defNone defect = iota
	defPolicyCertWrongName
	defPolicyCertSelfSigned
	defPolicyCertExpired
	defPolicyCertMissing
	defPolicyClosedPort
	defPolicyHostNXDomain
	defHTTP404
	defHTTP500
	defHTTP301
	defBodyEmpty
	defBodyGarbage
	defRecordInvalid
	defMXCertMismatch
	defMXCertSelfSigned
	defMXCertExpired
	defMXNoSTARTTLS
	defPolicyMXMismatch
	numDefects
)

var defectNames = [numDefects]string{
	"none", "policy_cert_wrong_name", "policy_cert_self_signed", "policy_cert_expired",
	"policy_cert_missing", "policy_closed_port", "policy_host_nxdomain",
	"http_404", "http_500", "http_301", "body_empty", "body_garbage", "record_invalid",
	"mx_cert_mismatch", "mx_cert_self_signed", "mx_cert_expired", "mx_no_starttls",
	"policy_mx_mismatch",
}

func (d defect) String() string { return defectNames[d] }

// mxKind selects which loopback smtpd (one per behaviour, each on its
// own 127.0.1.x address) an MX name's A record points at.
type mxKind int

const (
	mxGood mxKind = iota
	mxExpired
	mxSelfSigned
	mxMismatch
	mxNoSTARTTLS
	numMXKinds
)

// garbageBody is what policysrv.HTTPGarbage serves.
const garbageBody = "<html><body>It works!</body></html>\n"

// invalidRecords are the §4.3.2 record failures, rotated over the
// record_invalid quota.
var invalidRecords = []string{
	"v=STSv1; id=2024-09-01;",                  // bad id
	"v=STSv1;",                                 // no id
	"v=STSV1; id=20240901;",                    // bad version
	"v=STSv1; id=1; mx: a.com; mode: testing;", // bad extension
}

// mxHost is one MX name and the behaviour of the server behind it.
type mxHost struct {
	Name string
	Kind mxKind
}

// domainSpec is one generated domain: everything the substrate needs to
// serve it and everything the oracle needs to predict its verdict.
type domainSpec struct {
	Name    string
	Adopter bool
	Defect  defect
	MX      []mxHost
	// TXT is the RRset at _mta-sts.<Name> (nil for non-adopters).
	TXT []string
	// CNAME is the provider-side name mta-sts.<Name> delegates to ("" when
	// the domain hosts its own policy).
	CNAME string
	// Policy is what the policy host serves when it serves a policy.
	Policy mtasts.Policy
}

// World is one workload's generated input: the domain lists handed to
// the program under test, the substrate description (live workloads) or
// the offline scanner (service_jobs), and the oracle.
type World struct {
	Workload string
	Seed     int64
	Scale    float64
	// Now anchors certificate windows and the offline oracle.
	Now time.Time
	// Jobs are the domain lists submitted over HTTP, in submission
	// order: one list for the scan workloads, many for service_jobs.
	Jobs [][]string
	// ReportDomain[i] is the policy domain of the TLSRPT report posted
	// alongside job i.
	ReportDomain []string

	// specs holds the live population in generation order (nil for
	// service_jobs).
	specs []*domainSpec
	// arts is the offline form of every domain, by name.
	arts map[string]scanner.Artifacts
	// Offline is the scanner service_jobs runs (nil for live workloads).
	Offline scanner.Scanner

	expected map[string][]byte
}

// Live reports whether the workload scans real sockets.
func (w *World) Live() bool { return w.Offline == nil }

// Domains is the total number of domain scans one repetition performs.
func (w *World) Domains() int {
	n := 0
	for _, j := range w.Jobs {
		n += len(j)
	}
	return n
}

// scaled applies the common scale factor to a full-size count.
func scaled(full int, scale float64, min int) int {
	n := int(math.Round(float64(full) * scale))
	if n < min {
		n = min
	}
	return n
}

// Generate builds the world for one workload. The same (workload, seed,
// scale) always yields the same domain lists, zones and defects; the
// parent and the substrate child each call it and agree by construction.
func Generate(workload string, seed int64, scale float64) (*World, error) {
	if scale <= 0 {
		scale = DefaultScale
	}
	w := &World{Workload: workload, Seed: seed, Scale: scale, Now: time.Now().UTC()}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case Census:
		w.genCensus(rng, scaled(censusDomains, scale, 50))
	case Selfhosted:
		w.genSelfhosted(rng, scaled(selfhostedDomains, scale, 40))
	case Hosted:
		w.genHosted(rng, scaled(hostedDomains, scale, 40), scaled(hostedPoolHosts, scale, 2))
	case ServiceJobs:
		w.genServiceJobs(rng, scaled(serviceJobs, scale, 2))
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %s)", workload, strings.Join(Workloads, ", "))
	}
	if w.Live() {
		w.arts = make(map[string]scanner.Artifacts, len(w.specs))
		list := make([]string, len(w.specs))
		for i, d := range w.specs {
			w.arts[d.Name] = d.artifacts(w.Now)
			list[i] = d.Name
		}
		// Job slicing: the submitted order is a seeded shuffle, so shard
		// boundaries do not line up with generation order.
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		w.Jobs = [][]string{list}
		w.ReportDomain = []string{list[0]}
	}
	if err := w.buildOracle(); err != nil {
		return nil, err
	}
	return w, nil
}

func domainName(i int) string { return fmt.Sprintf("d%05d.s%02d.test", i, i%dnsShards) }

// ownMX names the two MX hosts only this domain uses. They live under
// one wildcard-covered zone so a single certificate per smtpd behaviour
// serves every one of them.
func ownMX(i int, kind mxKind) []mxHost {
	return []mxHost{
		{Name: fmt.Sprintf("d%05d-a.%s", i, mxZone), Kind: kind},
		{Name: fmt.Sprintf("d%05d-b.%s", i, mxZone), Kind: kind},
	}
}

// pickMode draws the policy mode with the paper's latest-snapshot mix.
func pickMode(rng *rand.Rand) mtasts.Mode {
	switch u := rng.Float64(); {
	case u < 0.20:
		return mtasts.ModeEnforce
	case u < 0.90:
		return mtasts.ModeTesting
	}
	return mtasts.ModeNone
}

// newAdopter fills in the healthy MTA-STS deployment for a domain whose
// MX set is already chosen.
func newAdopter(rng *rand.Rand, name string, mx []mxHost) *domainSpec {
	d := &domainSpec{Name: name, Adopter: true, MX: mx, TXT: []string{"v=STSv1; id=20240901;"}}
	d.Policy = mtasts.Policy{Version: mtasts.Version, Mode: pickMode(rng), MaxAge: 604800}
	for _, m := range mx {
		d.Policy.MXPatterns = append(d.Policy.MXPatterns, m.Name)
	}
	return d
}

// genCensus: the weekly TLD sweep. 2 % healthy adopters, everything else
// ends in Discover with an NXDOMAIN for _mta-sts.
func (w *World) genCensus(rng *rand.Rand, n int) {
	adopters := make(map[int]bool)
	for _, i := range rng.Perm(n)[:scaled(n, censusAdoptShare, 1)] {
		adopters[i] = true
	}
	for i := 0; i < n; i++ {
		if adopters[i] {
			w.specs = append(w.specs, newAdopter(rng, domainName(i), ownMX(i, mxGood)))
		} else {
			w.specs = append(w.specs, &domainSpec{Name: domainName(i), MX: ownMX(i, mxGood)})
		}
	}
}

// quota is one defect kind's share of a population.
type quota struct {
	kind   defect
	weight float64
}

// placeDefects hands each kind max(1, round(total·weight/Σweight))
// domains, walking a seeded permutation, so every seed carries the same
// defect mix and only its placement moves. It returns kind by index.
func placeDefects(rng *rand.Rand, n int, total float64, quotas []quota) map[int]defect {
	sum := 0.0
	for _, q := range quotas {
		sum += q.weight
	}
	perm := rng.Perm(n)
	out := make(map[int]defect)
	next := 0
	for _, q := range quotas {
		k := int(math.Round(total * q.weight / sum))
		if k < 1 {
			k = 1
		}
		for ; k > 0 && next < n; k-- {
			out[perm[next]] = q.kind
			next++
		}
	}
	return out
}

// genSelfhosted: the monthly component scan with nothing shareable.
// The defect mix is simnet.LatestRates' self-managed calibration,
// normalized so PolicySelf (37.8 %) of the population is defective.
func (w *World) genSelfhosted(rng *rand.Rand, n int) {
	r := simnet.LatestRates
	tls := r.PolicySelf * r.SelfStageTLS
	quotas := []quota{
		{defPolicyCertWrongName, tls * r.SelfTLSNameMismatch},
		{defPolicyCertSelfSigned, tls * r.SelfTLSSelfSigned},
		{defPolicyCertExpired, tls * r.SelfTLSExpired / 2},
		{defPolicyCertMissing, tls * r.SelfTLSExpired / 2},
		{defPolicyClosedPort, r.PolicySelf * r.SelfStageTCP},
		{defPolicyHostNXDomain, r.PolicySelf * r.SelfStageDNS},
		{defHTTP404, r.PolicySelf * r.SelfStageHTTP * 0.65},
		{defHTTP500, r.PolicySelf * r.SelfStageHTTP * 0.25},
		{defHTTP301, r.PolicySelf * r.SelfStageHTTP * 0.10},
		{defBodyEmpty, r.PolicySelf * r.SelfStageSyntax / 2},
		{defBodyGarbage, r.PolicySelf * r.SelfStageSyntax / 2},
		{defRecordInvalid, r.Record},
		{defMXCertMismatch, r.MXSelf * r.MXNameMismatch},
		{defMXCertSelfSigned, r.MXSelf * r.MXSelfSigned},
		{defMXCertExpired, r.MXSelf * r.MXExpired},
		{defMXNoSTARTTLS, r.MXSelf * r.MXExpired},
		{defPolicyMXMismatch, r.MismatchSelf},
	}
	defects := placeDefects(rng, n, r.PolicySelf*float64(n), quotas)
	for i := 0; i < n; i++ {
		d := newAdopter(rng, domainName(i), ownMX(i, mxGood))
		d.apply(defects[i], i)
		w.specs = append(w.specs, d)
	}
}

// genHosted: every adopter delegates its policy host by CNAME to one of
// the Table 2 providers and draws two MX hosts from a shared pool, so
// each probe target repeats ~160 times.
func (w *World) genHosted(rng *rand.Rand, n, pool int) {
	r := simnet.LatestRates
	tls := r.PolicyThird * r.ThirdStageTLS
	quotas := []quota{
		{defPolicyCertMissing, tls * r.ThirdTLSMissing},
		{defPolicyCertExpired, tls * r.ThirdTLSExpired},
		{defPolicyCertSelfSigned, tls * r.ThirdTLSSelfSigned},
		{defPolicyClosedPort, r.PolicyThird * r.ThirdStageTCP},
		{defHTTP404, r.PolicyThird * r.ThirdStageHTTP * 0.65},
		{defHTTP500, r.PolicyThird * r.ThirdStageHTTP * 0.35},
		{defBodyEmpty, r.PolicyThird * r.ThirdStageSyntax / 2},
		{defBodyGarbage, r.PolicyThird * r.ThirdStageSyntax / 2},
		{defMXCertMismatch, r.MXThird * r.MXNameMismatch},
		{defMXCertSelfSigned, r.MXThird * r.MXSelfSigned},
		{defMXCertExpired, r.MXThird * r.MXExpired},
	}
	defects := placeDefects(rng, n, (r.PolicyThird+r.MXThird)*float64(n), quotas)
	for i := 0; i < n; i++ {
		a := rng.Intn(pool)
		b := (a + 1 + rng.Intn(pool-1)) % pool
		mx := []mxHost{
			{Name: fmt.Sprintf("mx%02d.%s", a, poolZone), Kind: mxGood},
			{Name: fmt.Sprintf("mx%02d.%s", b, poolZone), Kind: mxGood},
		}
		// A provider's certificate defect is a property of the host, not
		// of one customer: defective customers sit on a legacy host every
		// domain with that defect shares.
		switch defects[i] {
		case defMXCertMismatch:
			mx[0] = mxHost{Name: "legacy-mismatch." + poolZone, Kind: mxMismatch}
		case defMXCertSelfSigned:
			mx[0] = mxHost{Name: "legacy-selfsigned." + poolZone, Kind: mxSelfSigned}
		case defMXCertExpired:
			mx[0] = mxHost{Name: "legacy-expired." + poolZone, Kind: mxExpired}
		}
		d := newAdopter(rng, domainName(i), mx)
		p := policysrv.Registry[i%len(policysrv.Registry)]
		if defects[i] == defPolicyClosedPort && p.Scheme == policysrv.SchemeShared {
			// One name serves every customer of a shared-name provider,
			// so it cannot be closed for just this one.
			p = policysrv.Registry[(i+1)%len(policysrv.Registry)]
		}
		d.CNAME = p.CanonicalName(d.Name)
		d.apply(defects[i], i)
		w.specs = append(w.specs, d)
	}
}

// apply realizes one defect on a healthy adopter. k varies the form of
// kinds that have several.
func (d *domainSpec) apply(kind defect, k int) {
	d.Defect = kind
	switch kind {
	case defRecordInvalid:
		d.TXT = []string{invalidRecords[k%len(invalidRecords)]}
	case defMXCertMismatch, defMXCertSelfSigned, defMXCertExpired, defMXNoSTARTTLS:
		mk := map[defect]mxKind{defMXCertMismatch: mxMismatch, defMXCertSelfSigned: mxSelfSigned,
			defMXCertExpired: mxExpired, defMXNoSTARTTLS: mxNoSTARTTLS}[kind]
		for i := range d.MX {
			// Pool hosts keep their provider-wide behaviour; own hosts
			// take the defect, on every MX except for one domain in
			// twelve (the "partially invalid" population of Figure 7).
			if strings.HasSuffix(d.MX[i].Name, "."+mxZone) && (i == 0 || k%12 != 0) {
				d.MX[i].Kind = mk
			}
		}
	case defPolicyMXMismatch:
		switch k % 3 {
		case 0:
			d.Policy.MXPatterns = []string{formerMXHost}
		case 1: // the mta-sts label confusion (3LD+)
			d.Policy.MXPatterns = []string{"mta-sts." + mxZone}
		default: // right name, wrong TLD
			d.Policy.MXPatterns = []string{strings.TrimSuffix(d.MX[0].Name, ".test") + ".example"}
		}
		if d.Policy.Mode == mtasts.ModeNone {
			d.Policy.Mode = mtasts.ModeTesting
		}
	}
}

// certFor is the offline descriptor of the certificate an smtpd of the
// given kind presents.
func certFor(kind mxKind, now time.Time) pki.CertProfile {
	names := []string{"*." + mxZone, "*." + poolZone}
	switch kind {
	case mxExpired:
		return pki.ExpiredProfile(now, names...)
	case mxSelfSigned:
		return pki.SelfSignedProfile(now, names...)
	case mxMismatch:
		return pki.GoodProfile(now, "*."+otherMXZone)
	}
	return pki.GoodProfile(now, names...)
}

// artifacts is the domain's offline form: what scanner.ScanArtifacts
// must be shown to reach the verdict the live scan reaches.
func (d *domainSpec) artifacts(now time.Time) scanner.Artifacts {
	a := scanner.Artifacts{
		Domain:     d.Name,
		TXT:        d.TXT,
		MXSTARTTLS: make(map[string]bool, len(d.MX)),
		MXCerts:    make(map[string]pki.CertProfile, len(d.MX)),
	}
	for _, m := range d.MX {
		a.MXHosts = append(a.MXHosts, m.Name)
		a.MXSTARTTLS[m.Name] = m.Kind != mxNoSTARTTLS
		if m.Kind != mxNoSTARTTLS {
			a.MXCerts[m.Name] = certFor(m.Kind, now)
		}
	}
	if !d.Adopter {
		return a
	}
	host := mtasts.PolicyHost(d.Name)
	a.PolicyHostResolves = true
	a.PolicyCNAME = d.CNAME
	a.TCPOpen = true
	a.PolicyCert = pki.GoodProfile(now, host)
	a.HTTPStatus = 200
	a.PolicyBody = []byte(d.Policy.String())
	switch d.Defect {
	case defPolicyCertWrongName:
		a.PolicyCert = pki.GoodProfile(now, d.Name)
	case defPolicyCertSelfSigned:
		a.PolicyCert = pki.SelfSignedProfile(now, host)
	case defPolicyCertExpired:
		a.PolicyCert = pki.ExpiredProfile(now, host)
	case defPolicyCertMissing:
		a.PolicyCert = pki.MissingProfile()
	case defPolicyClosedPort:
		a.TCPOpen = false
	case defPolicyHostNXDomain:
		a.PolicyHostResolves = false
	case defHTTP404:
		a.HTTPStatus = 404
	case defHTTP500:
		a.HTTPStatus = 500
	case defHTTP301:
		a.HTTPStatus = 301
	case defBodyEmpty:
		a.PolicyBody = nil
	case defBodyGarbage:
		a.PolicyBody = []byte(garbageBody)
	}
	return a
}

// genServiceJobs: the offline service path. The scanner is wired as
// cmd/mtasts-serve wires it without -dns (experiments.SnapshotSource
// over a simnet world), so scansvc, campaign, store and tlsrpt do all
// the work, as many small fsynced jobs.
func (w *World) genServiceJobs(rng *rand.Rand, jobs int) {
	sw := simnet.Generate(simnet.Config{Seed: w.Seed, Scale: simnetScale})
	t := experiments.WeekSnapshot(0)
	w.Now = simnet.SnapshotTime(t)
	_, w.Offline = experiments.SnapshotSource(sw, t)

	// The artifact scanner answers MX probes from a first-seen-wins view
	// of each shared host; the oracle must see the same view.
	type hostView struct {
		starttls bool
		cert     pki.CertProfile
		hasCert  bool
	}
	hosts := make(map[string]hostView)
	w.arts = make(map[string]scanner.Artifacts)
	var live []string
	for _, d := range sw.Domains {
		a, ok := sw.ArtifactsAt(d, t)
		if !ok {
			continue
		}
		for _, mx := range a.MXHosts {
			hv, seen := hosts[mx]
			if !seen {
				hv.starttls = a.MXSTARTTLS[mx]
				hv.cert, hv.hasCert = a.MXCerts[mx]
				hosts[mx] = hv
			}
			a.MXSTARTTLS[mx] = hv.starttls
			delete(a.MXCerts, mx)
			if hv.hasCert {
				a.MXCerts[mx] = hv.cert
			}
		}
		w.arts[a.Domain] = a
		live = append(live, a.Domain)
	}
	sort.Strings(live)

	// Jobs are consecutive slices of one seeded permutation, so the jobs
	// in flight at any moment are disjoint.
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for j := 0; j < jobs; j++ {
		list := make([]string, serviceJobDomains)
		for k := range list {
			list[k] = live[(j*serviceJobDomains+k)%len(live)]
		}
		w.Jobs = append(w.Jobs, list)
		w.ReportDomain = append(w.ReportDomain, list[0])
	}
}

// buildOracle computes, per domain, the exact JSONL line the service
// must stream back: the canonical campaign record of the offline
// verdict. Comparing bytes compares every classification-bearing field,
// including the hash of the full ClassificationKey.
func (w *World) buildOracle() error {
	w.expected = make(map[string][]byte, len(w.arts))
	for name, a := range w.arts {
		r := scanner.ScanArtifacts(a, w.Now)
		if w.Live() && r.PolicyStage != mtasts.StageHTTP {
			// Known live/offline divergence (bench/README.md): the live
			// fetcher reports an HTTP status only for HTTP-stage
			// failures, the offline pipeline records the observed 200.
			r.PolicyHTTPStatus = 0
		}
		rec := campaign.FromResult(&r)
		line, err := rec.Encode()
		if err != nil {
			return fmt.Errorf("bench: encoding oracle record for %s: %w", name, err)
		}
		w.expected[name] = line
	}
	return nil
}

// Expected returns the oracle's result line for a domain.
func (w *World) Expected(domain string) ([]byte, bool) {
	line, ok := w.expected[domain]
	return line, ok
}

// Digest fingerprints everything the seed decides: the submitted domain
// lists, the report placement, and (live workloads) every record the
// zones hold and every tenant the policy host serves. Two worlds with
// equal digests are byte-identical inputs.
func (w *World) Digest() string {
	h := sha256.New()
	for i, job := range w.Jobs {
		fmt.Fprintf(h, "job %d report %s\n%s\n", i, w.ReportDomain[i], strings.Join(job, "\n"))
	}
	for _, d := range w.specs {
		fmt.Fprintf(h, "%s adopter=%v defect=%s mx=%v txt=%q cname=%s policy=%q\n",
			d.Name, d.Adopter, d.Defect, d.MX, d.TXT, d.CNAME, d.Policy.String())
	}
	if !w.Live() {
		names := make([]string, 0, len(w.expected))
		for n := range w.expected {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "%s %s\n", n, w.expected[n])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DefectCounts tallies the live population by defect kind (reporting
// and tests).
func (w *World) DefectCounts() map[string]int {
	out := make(map[string]int)
	for _, d := range w.specs {
		if d.Adopter {
			out[d.Defect.String()]++
		} else {
			out["no_record"]++
		}
	}
	return out
}
