package simnet

import (
	"fmt"

	"github.com/netsecurelab/mtasts/internal/policysrv"
)

// ManagementClass is the simnet ground truth for who runs a component.
type ManagementClass int

// Management classes; Unclassifiable models the ~20% of domains the
// paper's heuristics could not attribute.
const (
	ClassSelf ManagementClass = iota
	ClassThird
	ClassUnclassifiable
)

// String returns a short label.
func (c ManagementClass) String() string {
	switch c {
	case ClassSelf:
		return "self-managed"
	case ClassThird:
		return "third-party"
	}
	return "unclassified"
}

// MismatchPlan is the persistent inconsistency attribute of a domain.
type MismatchPlan int

// Inconsistency plans (§4.4 taxonomy as ground truth).
const (
	MismatchNone MismatchPlan = iota
	// MismatchDomainNever: the policy listed unrelated MX hosts from day
	// one.
	MismatchDomainNever
	// MismatchDomainObsolete: the policy matched until an MX migration at
	// MigrationMonth; it was never updated (the Figure 9 population).
	MismatchDomainObsolete
	// Mismatch3LD: same registrable domain, extra labels (typically the
	// mta-sts subdomain confusion).
	Mismatch3LD
	// MismatchTypo: an edit-distance ≤3 typo.
	MismatchTypo
	// MismatchTLD: right name, wrong TLD.
	MismatchTLD
)

// Domain is one MTA-STS adopter in the synthetic ecosystem. Every field is
// decided at generation time; snapshot-dependent state (which errors are
// active when) is derived deterministically in planAt.
type Domain struct {
	// Name is the registered domain name.
	Name string
	// TLD is one of com/net/org/se.
	TLD string
	// Index is the domain's position in the world population.
	Index int
	// AdoptedAt is the snapshot index the MTA-STS record first appeared.
	AdoptedAt int
	// Rank is the domain's Tranco rank (1-based); 0 means unranked. Ranks
	// are assigned so the per-bin adoption percentages reproduce the
	// Figure 3 popularity correlation.
	Rank int

	// PolicyClass / MXClass attribute the policy host and MX operation.
	PolicyClass ManagementClass
	MXClass     ManagementClass
	// PolicyProvider is the Table 2 provider name when PolicyClass is
	// third-party ("OtherPolicyHost" for the tail).
	PolicyProvider string
	// MXProvider is the mail provider key when MXClass is third-party.
	MXProvider string

	// Mode is the policy mode the domain publishes.
	Mode string

	// Mismatch is the persistent inconsistency plan.
	Mismatch MismatchPlan
	// MigrationMonth is the MX migration snapshot for
	// MismatchDomainObsolete.
	MigrationMonth int

	// Cohort flags for scripted incidents.
	OrgSpike     bool // part of the 2024-01 .org adoption cohort
	Lucidgrow    bool // lucidgrow.com customer (2024-01-23 incident)
	Porkbun      bool // Porkbun registration wave (2024-08+)
	SelfSignWave bool // hit by the 2024-06-08 third-party self-signed wave

}

// mxProviders is the third-party mail-hosting mix. Weights approximate the
// provider concentration in §6.1 (Google and Outlook dominate).
var mxProviders = []struct {
	Key    string
	Host   func(domain string) []string
	Weight float64
}{
	{"google", func(d string) []string {
		return []string{"aspmx.l.google-mail.test", "alt1.aspmx.l.google-mail.test"}
	}, 0.42},
	{"outlook", func(d string) []string {
		// Per-customer host names pointing at shared infrastructure.
		return []string{dashName(d) + ".mail.protection.outlook-mail.test"}
	}, 0.28},
	{"yahoo", func(d string) []string { return []string{"mx1.yahoo-dns.test"} }, 0.08},
	{"mailcom", func(d string) []string { return []string{"mx00.mail-com.test"} }, 0.07},
	{"mxrouting", func(d string) []string { return []string{"mx1.mxrouting-net.test"} }, 0.06},
	{"zoho", func(d string) []string { return []string{"mx.zoho-mail.test"} }, 0.09},
}

func dashName(domain string) string {
	out := make([]byte, len(domain))
	for i := 0; i < len(domain); i++ {
		if domain[i] == '.' {
			out[i] = '-'
		} else {
			out[i] = domain[i]
		}
	}
	return string(out)
}

// MXHostsAt returns the domain's MX host names at snapshot t, accounting
// for the migration of MismatchDomainObsolete domains.
func (d *Domain) MXHostsAt(t int) []string {
	if d.Lucidgrow {
		return []string{"mx-" + dashName(d.Name) + ".lucidgrow.com"}
	}
	if d.Mismatch == MismatchDomainObsolete && t >= d.MigrationMonth {
		// Post-migration: a new provider's hosts.
		return []string{"mx1.migrated-" + d.MXProviderOrSelf() + ".test"}
	}
	return d.baseMXHosts()
}

func (d *Domain) baseMXHosts() []string {
	if d.MXClass == ClassThird {
		if d.PolicyProvider == "Tutanota" && d.MXProvider == "tutanota" {
			return []string{"mail.tutanota.de"}
		}
		for _, p := range mxProviders {
			if p.Key == d.MXProvider {
				return p.Host(d.Name)
			}
		}
	}
	return []string{"mail." + d.Name}
}

// MXProviderOrSelf returns the MX provider key or "self".
func (d *Domain) MXProviderOrSelf() string {
	if d.MXClass == ClassThird && d.MXProvider != "" {
		return d.MXProvider
	}
	return "self"
}

// PolicyHostCNAME returns the CNAME target of the domain's policy host
// ("" when not delegated).
func (d *Domain) PolicyHostCNAME() string {
	if d.PolicyClass != ClassThird {
		return ""
	}
	if p, ok := policysrv.LookupProvider(d.PolicyProvider); ok {
		return p.CanonicalName(d.Name)
	}
	return "policy." + d.PolicyProvider + ".test"
}

// PolicyPatternsAt returns the mx patterns the domain's policy lists at
// snapshot t, realizing the domain's mismatch plan.
func (d *Domain) PolicyPatternsAt(t int) []string {
	mxs := d.MXHostsAt(t)
	switch d.Mismatch {
	case MismatchNone:
		return mxs
	case MismatchDomainNever:
		return []string{fmt.Sprintf("mx.oldhost%d.former-provider.test", d.Index%97)}
	case MismatchDomainObsolete:
		// The policy forever lists the pre-migration hosts.
		return d.baseMXHosts()
	case Mismatch3LD:
		// The mta-sts subdomain confusion: keep the MX's registrable
		// domain, prepend the mta-sts label (81.8% of 3LD+ cases).
		return []string{"mta-sts." + stripFirstLabel(mxs[0])}
	case MismatchTypo:
		return []string{typoOf(mxs[0])}
	case MismatchTLD:
		return []string{swapTLD(mxs[0])}
	}
	return mxs
}

func stripFirstLabel(host string) string {
	for i := 0; i < len(host); i++ {
		if host[i] == '.' {
			return host[i+1:]
		}
	}
	return host
}

// typoOf introduces a two-character transposition in the first label.
func typoOf(host string) string {
	b := []byte(host)
	if len(b) >= 3 && b[0] != b[1] {
		b[0], b[1] = b[1], b[0]
	} else if len(b) >= 3 {
		b[1], b[2] = b[2], b[1]
	}
	return string(b)
}

// swapTLD exchanges the final label between com and net (org→com).
func swapTLD(host string) string {
	dot := -1
	for i := len(host) - 1; i >= 0; i-- {
		if host[i] == '.' {
			dot = i
			break
		}
	}
	if dot < 0 {
		return host
	}
	switch host[dot+1:] {
	case "com":
		return host[:dot+1] + "net"
	case "net":
		return host[:dot+1] + "com"
	default:
		return host[:dot+1] + "com"
	}
}
