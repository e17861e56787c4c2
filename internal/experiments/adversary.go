// Adversary experiment: the §6-style sender enforcement matrix. For every
// registered attack in internal/faults' adversary model, a loopback world
// (authoritative DNS, policy host, true MX, attacker MX) is provisioned
// and the attack is mounted on the wire path; then every sender behavior
// of the sendertest platform delivers through the REAL stack —
// mta.Outbound, mtasts.Validator, smtpclient — under each MTA-STS policy
// mode (none/testing/enforce), after an honest warm-up delivery that
// primes the TOFU policy cache. Each cell's live outcome (delivered or
// refused, TLS used, certificate verified, mechanism, errtax code,
// TLSRPT violation accounting) is asserted against the sendertest
// decision model, the canonical dual-validator column is asserted against
// the attack registry's Expect* labels, and two invariants are pinned:
//
//   - no-downgrade: under every attack, an MTA-STS-validating sender in
//     enforce mode never delivers in plaintext, with an unverified
//     certificate, or to a non-matching MX;
//   - testing-reports: in testing mode the mail always flows, but any
//     policy violation is recorded in the TLSRPT report rather than
//     counted as a success.
//
// The whole matrix runs twice under the same seed; the two outcome
// fingerprints must match, so any failure reproduces.

package experiments

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/netsecurelab/mtasts/internal/dane"
	"github.com/netsecurelab/mtasts/internal/dataset"
	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/faults"
	"github.com/netsecurelab/mtasts/internal/loopnet"
	"github.com/netsecurelab/mtasts/internal/mta"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/policysrv"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/sendertest"
	"github.com/netsecurelab/mtasts/internal/smtpd"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// AttackMatrixConfig parameterizes RunAttackMatrix. The zero value is
// usable.
type AttackMatrixConfig struct {
	// Seed drives the adversary's spoofed material (record ids, TLSA
	// bytes). Default 1.
	Seed int64
	// Attacks restricts the run to the named attacks; empty means every
	// registered attack.
	Attacks []string
	// FetchTimeout bounds each policy fetch (default 300ms — the
	// slowloris attack costs exactly one such deadline per fetch).
	FetchTimeout time.Duration
}

func (c AttackMatrixConfig) withDefaults() AttackMatrixConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 300 * time.Millisecond
	}
	return c
}

// PolicyModes are the MTA-STS modes the matrix iterates, in order.
var PolicyModes = []string{"none", "testing", "enforce"}

// matrixBehavior is one sender column of the matrix.
type matrixBehavior struct {
	name string
	b    sendertest.Behavior
}

// MatrixBehaviors returns the sender behaviors the matrix exercises: the
// §6 sender classes, from the legacy plaintext sender to the compliant
// and bug-compatible dual validators.
func MatrixBehaviors() []sendertest.Behavior {
	out := make([]sendertest.Behavior, len(matrixBehaviors))
	for i, mb := range matrixBehaviors {
		b := mb.b
		b.Domain = mb.name
		out[i] = b
	}
	return out
}

var matrixBehaviors = []matrixBehavior{
	{"plaintext", sendertest.Behavior{}},
	{"opportunistic", sendertest.Behavior{SupportsTLS: true}},
	{"pkix-always", sendertest.Behavior{SupportsTLS: true, RequirePKIXAlways: true}},
	{"mta-sts", sendertest.Behavior{SupportsTLS: true, ValidatesMTASTS: true}},
	{"dane", sendertest.Behavior{SupportsTLS: true, ValidatesDANE: true}},
	{"dual", sendertest.Behavior{SupportsTLS: true, ValidatesMTASTS: true, ValidatesDANE: true}},
	{"dual-flipped", sendertest.Behavior{SupportsTLS: true, ValidatesMTASTS: true,
		ValidatesDANE: true, PrefersMTASTSOverDANE: true}},
}

// canonicalBehavior is the column checked against the attack registry's
// Expect* labels: the compliant dual validator.
const canonicalBehavior = "dual"

// AttackCell is one (attack, mode, behavior) cell of the matrix.
type AttackCell struct {
	Attack   string
	Mode     string
	Behavior string

	// Live outcome.
	Delivered    bool
	Refused      bool
	UsedTLS      bool
	CertVerified bool
	MXHost       string
	Mechanism    string
	// Code is the errtax code surfaced by the delivery error or, on
	// delivered cells, by the evaluation's record/policy errors.
	Code errtax.Code
	// ViolationRecorded reports whether the attacked delivery added a
	// TLSRPT failure entry.
	ViolationRecorded bool

	// Expectations from the sendertest model.
	Want          string
	WantCode      errtax.Code
	WantViolation bool

	// OK is true when the live outcome matches the model on every
	// asserted dimension; Problem explains the first mismatch otherwise.
	OK      bool
	Problem string
}

// Outcome returns the cell's live outcome label (the faults.Outcome*
// vocabulary).
func (c AttackCell) Outcome() string {
	switch {
	case c.Refused:
		return faults.OutcomeRefuse
	case c.Delivered && c.UsedTLS:
		return faults.OutcomeDeliverTLS
	case c.Delivered:
		return faults.OutcomeDeliverPlain
	}
	return "error"
}

// AttackMatrixReport is the full experiment outcome.
type AttackMatrixReport struct {
	Seed    int64
	Attacks []string
	Cells   []AttackCell
	// Mismatches lists cells whose live outcome disagrees with the model.
	Mismatches []string
	// Downgrades lists enforce-mode cells where an MTA-STS-validating
	// sender delivered in plaintext, with an unverified certificate, or
	// to a host other than the true MX. Must be empty.
	Downgrades []string
	// TestingHoldbacks lists testing-mode violations of the
	// always-deliver-but-report guarantee. Must be empty.
	TestingHoldbacks []string
	// RegistryMismatches lists canonical-sender cells that disagree with
	// the attack registry's Expect* labels. Must be empty.
	RegistryMismatches []string
	// Deterministic reports whether two same-seed runs produced
	// identical outcome fingerprints.
	Deterministic bool
}

// Passed reports the acceptance criterion: every cell matches the model,
// both invariants hold, the registry agrees, and the run is
// deterministic under its seed.
func (r *AttackMatrixReport) Passed() bool {
	return len(r.Mismatches) == 0 && len(r.Downgrades) == 0 &&
		len(r.TestingHoldbacks) == 0 && len(r.RegistryMismatches) == 0 &&
		r.Deterministic
}

// Table renders the matrix for cmd/reproduce: one row per attack × mode,
// one column per sender behavior carrying the live outcome label (with
// the errtax code when one surfaced).
func (r *AttackMatrixReport) Table() *dataset.Table {
	headers := []string{"attack", "mode"}
	for _, mb := range matrixBehaviors {
		headers = append(headers, mb.name)
	}
	t := &dataset.Table{
		Title:   fmt.Sprintf("Sender enforcement matrix under attack (seed %d, deterministic=%v)", r.Seed, r.Deterministic),
		Headers: headers,
	}
	byKey := make(map[string]AttackCell, len(r.Cells))
	for _, c := range r.Cells {
		byKey[c.Attack+"|"+c.Mode+"|"+c.Behavior] = c
	}
	for _, att := range r.Attacks {
		for _, mode := range PolicyModes {
			row := []any{att, mode}
			for _, mb := range matrixBehaviors {
				c, ok := byKey[att+"|"+mode+"|"+mb.name]
				if !ok {
					row = append(row, "-")
					continue
				}
				cell := c.Outcome()
				if c.Code != "" {
					cell += " [" + string(c.Code) + "]"
				}
				if !c.OK {
					cell += " !!"
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
	}
	return t
}

// The names every adversary world uses: the victim domain, its true MX,
// and the attacker's plaintext-only MX.
const victimDomain, victimMX, evilMX = "victim.test", "mx.victim.test", "mx.evil.test"

// adversaryWorld is one recipient on a loopback Internet, plus — for the
// attack matrix — the certificate an on-path MITM presents.
type adversaryWorld struct {
	net      *loopnet.Net
	evilCert *tls.Certificate
}

func buildAdversaryWorld(att faults.Attack) (*adversaryWorld, error) {
	inet, err := loopnet.Start(context.Background())
	if err != nil {
		return nil, err
	}
	inet.AddDomain(loopnet.Domain{
		Name: victimDomain, MX: []string{victimMX}, TXT: []string{"v=STSv1; id=20260801;"},
		Tenant: &policysrv.Tenant{}, // runMatrixOnce sets the policy per mode
	})

	// The true MX: CA-issued certificate, honest STARTTLS.
	cert := inet.Cert(pki.IssueOptions{Names: []string{victimMX}})
	if _, err := inet.AddMX(smtpd.Behavior{Certificate: cert, AcceptMail: true}, victimMX); err != nil {
		return nil, errors.Join(err, inet.Close())
	}
	if att.NeedsTLSA {
		// Honest DANE deployment for the true MX; the adversary rewrites
		// this RRset on the wire.
		inet.Zone(victimMX).MustAdd(dane.NewEE3(cert.Leaf).RR(victimMX, 300))
	}

	// The attacker's MX: plaintext-only, so mail rerouted to it by the
	// mx_impostor attack is read off the wire.
	if _, err := inet.AddMX(smtpd.Behavior{DisableSTARTTLS: true, AcceptMail: true}, evilMX); err != nil {
		return nil, errors.Join(err, inet.Close())
	}

	// The attacker certificate an on-path MX MITM presents: self-signed
	// for the true MX name (mx_wrong_cert).
	evilCert := inet.Cert(pki.IssueOptions{Names: []string{victimMX}, SelfSigned: true})
	return &adversaryWorld{net: inet, evilCert: evilCert}, nil
}

// setTenant (re-)registers the victim's policy in the given mode and
// returns the honest policy body the adversary's rollback needs.
func (w *adversaryWorld) setTenant(mode string) mtasts.Policy {
	p := mtasts.Policy{Version: mtasts.Version, Mode: mtasts.Mode(mode),
		MaxAge: 86400, MXPatterns: []string{victimMX}}
	w.net.Policy.AddTenant(&policysrv.Tenant{Domain: victimDomain, Policy: p})
	return p
}

// outboundFor wires one sender behavior to the world with a FRESH DNS
// client (no resolver cache — adversary DNS rewrites must reach the
// sender) and a fresh TOFU policy cache.
func (w *adversaryWorld) outboundFor(b sendertest.Behavior, report *tlsrpt.Report, fetchTimeout time.Duration) *mta.Outbound {
	dnsClient := &resolver.Client{ServerAddr: w.net.DNS.Addr().String(), Timeout: 500 * time.Millisecond}
	o := &mta.Outbound{
		DNS:          dnsClient,
		Roots:        w.net.CA.Pool(),
		HeloName:     "matrix.sender.lab",
		AddrOverride: w.net.DialAddr,
		Timeout:      3 * time.Second,
		Report:       report,
	}
	if !b.SupportsTLS {
		// The legacy plaintext sender has no TLS stack and therefore no
		// policy engine either.
		o.TLSDisabled = true
		return o
	}
	if b.ValidatesMTASTS {
		adapter := scanner.TXTResolverAdapter{Client: dnsClient}
		o.Validator = &mtasts.Validator{
			Resolver: adapter,
			Fetcher: &mtasts.Fetcher{
				Resolver:    adapter,
				RootCAs:     w.net.CA.Pool(),
				Port:        w.net.Policy.Port(),
				Timeout:     fetchTimeout,
				MaxAttempts: 1,
			},
			Cache: mtasts.NewPolicyCache(16),
		}
	}
	o.DANEEnabled = b.ValidatesDANE
	o.RequirePKIX = b.RequirePKIXAlways
	o.MTASTSOverDANE = b.PrefersMTASTSOverDANE
	return o
}

// baseConfig is the honest recipient as the sendertest model sees it for
// one attack world and policy mode.
func baseConfig(att faults.Attack, mode string) sendertest.RecipientConfig {
	return sendertest.RecipientConfig{
		Name: "victim", MTASTS: true, MTASTSMode: mode, MXMatchesPolicy: true,
		OffersSTARTTLS: true, CertPKIXValid: true,
		DANE: att.NeedsTLSA, TLSAMatches: att.NeedsTLSA,
	}
}

// attackedConfig transforms the honest recipient into what the sender
// effectively faces under the attack. Policy-layer attacks that the TOFU
// cache absorbs leave the config unchanged; the rollback to mode:none
// changes the effective mode, and SMTP/DNS attacks change the transport
// facts.
func attackedConfig(att faults.Attack, rc sendertest.RecipientConfig) sendertest.RecipientConfig {
	switch att.Name {
	case "policy_rollback_none":
		rc.MTASTSMode = "none"
	case "starttls_strip":
		rc.OffersSTARTTLS = false
	case "mx_wrong_cert":
		rc.CertPKIXValid = false
	case "mx_impostor":
		rc.MXMatchesPolicy = false
		rc.CertPKIXValid = false
		rc.OffersSTARTTLS = false
	case "tlsa_mismatch":
		rc.TLSAMatches = false
	}
	return rc
}

// policyVisiblyViolated reports whether delivering to this recipient
// under an MTA-STS policy violates it (the condition testing mode must
// report).
func policyVisiblyViolated(rc sendertest.RecipientConfig) bool {
	return !(rc.OffersSTARTTLS && rc.CertPKIXValid && rc.MXMatchesPolicy)
}

// expectedCode derives the errtax code a cell must surface: refusals
// carry the code of the gate that fired, and CodeOnDeliver attacks leave
// their code in the evaluation of any sender whose MTA-STS engine ran.
func expectedCode(att faults.Attack, b sendertest.Behavior, model sendertest.Outcome, rc sendertest.RecipientConfig) errtax.Code {
	if model.Refused {
		switch model.Validated {
		case sendertest.MechDANE:
			if !rc.OffersSTARTTLS {
				return errtax.CodeNoSTARTTLS
			}
			return errtax.CodeTLSANoMatch
		case sendertest.MechMTASTS:
			// The validator refuses on MX mismatch before connecting;
			// transport gates fire afterwards.
			if !rc.MXMatchesPolicy {
				return errtax.CodeInconsistency
			}
			if !rc.OffersSTARTTLS {
				return errtax.CodeNoSTARTTLS
			}
			return errtax.CodeSelfSigned // the lab's attacker certs are self-signed
		case sendertest.MechPKIX:
			if !rc.OffersSTARTTLS {
				return errtax.CodeNoSTARTTLS
			}
			return errtax.CodeSelfSigned
		}
		return ""
	}
	if att.CodeOnDeliver && b.SupportsTLS && b.ValidatesMTASTS && model.Validated != sendertest.MechDANE {
		return att.Code
	}
	return ""
}

func failureCount(rep *tlsrpt.Report) int64 {
	var n int64
	for i := range rep.Policies {
		n += rep.Policies[i].Summary.TotalFailureSessionCount
	}
	return n
}

// cellCode extracts the errtax code a live cell surfaced: the delivery
// error first, then the evaluation's policy and record errors.
func cellCode(err error, ev mtasts.Evaluation) errtax.Code {
	for _, e := range []error{err, ev.PolicyErr, ev.RecordErr} {
		if e == nil {
			continue
		}
		if code, ok := errtax.CodeOf(e); ok {
			return code
		}
	}
	return ""
}

// runCell executes one (attack, mode, behavior) cell: an honest warm-up
// delivery that primes the sender's TOFU cache, then the attacked
// delivery through the live stack.
func (w *adversaryWorld) runCell(att faults.Attack, mode string, mb matrixBehavior, adv *faults.Adversary, fetchTimeout time.Duration) AttackCell {
	cell := AttackCell{Attack: att.Name, Mode: mode, Behavior: mb.name}
	base := baseConfig(att, mode)
	rc := attackedConfig(att, base)
	model := mb.b.Deliver(rc)
	cell.Want = modelLabel(model)
	cell.WantCode = expectedCode(att, mb.b, model, rc)
	cell.WantViolation = model.Refused ||
		(model.Delivered && model.Validated == sendertest.MechMTASTS &&
			mode == "testing" && policyVisiblyViolated(rc))

	start := time.Now()
	report := tlsrpt.NewReport("Adversary Lab", "mailto:sec@lab.test",
		att.Name+"-"+mode+"-"+mb.name, start, start.Add(time.Hour))
	o := w.outboundFor(mb.b, report, fetchTimeout)
	ctx := context.Background()
	from, to := "a@sender.lab", []string{"b@" + victimDomain}

	// Warm-up: honest world. Every behavior must deliver here; STS
	// validators cache the current-mode policy (TOFU).
	w.net.SetAdversary(nil)
	if out, err := o.Send(ctx, from, to, []byte("warmup\r\n")); err != nil || !out.Delivered {
		cell.Problem = fmt.Sprintf("warm-up delivery failed: %v", err)
		return cell
	}
	preFailures := failureCount(report)

	// The attacked delivery.
	w.net.SetAdversary(adv)
	out, err := o.Send(ctx, from, to, []byte("attacked\r\n"))
	w.net.SetAdversary(nil)

	cell.Delivered = err == nil && out.Delivered
	cell.Refused = err != nil && errors.Is(err, mta.ErrPolicyRefused)
	cell.UsedTLS = out.TLS
	cell.CertVerified = out.CertVerified
	cell.MXHost = out.MXHost
	if cell.Delivered {
		cell.Mechanism = out.Mechanism.String()
	} else {
		cell.Mechanism = "-"
	}
	cell.Code = cellCode(err, out.Evaluation)
	cell.ViolationRecorded = failureCount(report)-preFailures > 0

	if err != nil && !cell.Refused {
		cell.Problem = fmt.Sprintf("unexpected delivery error: %v", err)
		return cell
	}
	cell.OK, cell.Problem = cell.check(model)
	return cell
}

// modelLabel maps a model outcome onto the faults.Outcome* vocabulary.
func modelLabel(m sendertest.Outcome) string {
	switch {
	case m.Refused:
		return faults.OutcomeRefuse
	case m.UsedTLS:
		return faults.OutcomeDeliverTLS
	}
	return faults.OutcomeDeliverPlain
}

// check compares the live cell with the model on every asserted
// dimension.
func (c AttackCell) check(model sendertest.Outcome) (bool, string) {
	if got := c.Outcome(); got != c.Want {
		return false, fmt.Sprintf("outcome %s, model says %s", got, c.Want)
	}
	if model.Delivered {
		if want := mechLabel(model.Validated); c.Mechanism != want {
			return false, fmt.Sprintf("mechanism %s, model says %s", c.Mechanism, want)
		}
	}
	if c.Code != c.WantCode {
		return false, fmt.Sprintf("code %q, want %q", c.Code, c.WantCode)
	}
	if c.ViolationRecorded != c.WantViolation {
		return false, fmt.Sprintf("violation recorded %v, want %v", c.ViolationRecorded, c.WantViolation)
	}
	return true, ""
}

// mechLabel maps a sendertest mechanism onto mta.Mechanism.String()
// labels — the two enums must agree on the live path.
func mechLabel(m sendertest.Mechanism) string {
	switch m {
	case sendertest.MechOpportunistic:
		return "opportunistic"
	case sendertest.MechPKIX:
		return "pkix"
	case sendertest.MechMTASTS:
		return "mta-sts"
	case sendertest.MechDANE:
		return "dane"
	}
	return "none"
}

// runMatrixOnce executes the full matrix for one seed.
func runMatrixOnce(cfg AttackMatrixConfig, names []string) ([]AttackCell, error) {
	var cells []AttackCell
	for _, name := range names {
		att, ok := faults.AttackByName(name)
		if !ok {
			return nil, fmt.Errorf("adversary: unknown attack %q", name)
		}
		w, err := buildAdversaryWorld(att)
		if err != nil {
			return nil, fmt.Errorf("adversary substrate for %s: %w", name, err)
		}
		for _, mode := range PolicyModes {
			policy := w.setTenant(mode)
			adv := faults.NewAdversary(faults.Scenario{
				Attack: att, Seed: cfg.Seed, Domain: victimDomain, MXHost: victimMX,
				EvilMXHost: evilMX, EvilCert: w.evilCert,
				PolicyBody: policy.String(),
			})
			for _, mb := range matrixBehaviors {
				cells = append(cells, w.runCell(att, mode, mb, adv, cfg.FetchTimeout))
			}
		}
		if err := w.net.Close(); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// fingerprint canonically encodes every cell outcome; same-seed runs
// must produce equal fingerprints.
func matrixFingerprint(cells []AttackCell) string {
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%s|%s|%s|%s|mech=%s|mx=%s|code=%s|cert=%v|violation=%v|ok=%v\n",
			c.Attack, c.Mode, c.Behavior, c.Outcome(), c.Mechanism, c.MXHost,
			c.Code, c.CertVerified, c.ViolationRecorded, c.OK)
	}
	return b.String()
}

// RunAttackMatrix provisions one world per attack, mounts the attack,
// and drives every behavior × mode cell through the live sender stack —
// twice, to pin same-seed determinism.
func RunAttackMatrix(cfg AttackMatrixConfig) (*AttackMatrixReport, error) {
	cfg = cfg.withDefaults()
	names := cfg.Attacks
	if len(names) == 0 {
		names = faults.AttackNames()
	}
	first, err := runMatrixOnce(cfg, names)
	if err != nil {
		return nil, err
	}
	second, err := runMatrixOnce(cfg, names)
	if err != nil {
		return nil, err
	}

	rep := &AttackMatrixReport{Seed: cfg.Seed, Attacks: names, Cells: first}
	rep.Deterministic = matrixFingerprint(first) == matrixFingerprint(second)
	validates := make(map[string]bool, len(matrixBehaviors))
	for _, mb := range matrixBehaviors {
		validates[mb.name] = mb.b.ValidatesMTASTS
	}
	for _, c := range first {
		id := fmt.Sprintf("%s/%s/%s", c.Attack, c.Mode, c.Behavior)
		if !c.OK {
			rep.Mismatches = append(rep.Mismatches, id+": "+c.Problem)
		}
		if c.Mode == "enforce" && validates[c.Behavior] && c.Delivered {
			if !c.UsedTLS || !c.CertVerified || c.MXHost != victimMX {
				rep.Downgrades = append(rep.Downgrades, fmt.Sprintf(
					"%s: delivered tls=%v certverified=%v mx=%s", id, c.UsedTLS, c.CertVerified, c.MXHost))
			}
		}
		if c.Mode == "testing" && c.Want != faults.OutcomeRefuse && validates[c.Behavior] {
			if !c.Delivered {
				rep.TestingHoldbacks = append(rep.TestingHoldbacks, id+": testing mode withheld mail")
			} else if c.WantViolation && !c.ViolationRecorded {
				rep.TestingHoldbacks = append(rep.TestingHoldbacks, id+": violation not reported")
			}
		}
		if c.Behavior == canonicalBehavior {
			att, _ := faults.AttackByName(c.Attack)
			if want := att.Expect(c.Mode); c.Outcome() != want {
				rep.RegistryMismatches = append(rep.RegistryMismatches, fmt.Sprintf(
					"%s/%s: canonical sender %s, registry expects %s", c.Attack, c.Mode, c.Outcome(), want))
			}
		}
	}
	return rep, nil
}
