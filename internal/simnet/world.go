package simnet

import (
	"fmt"
	"math"
)

// Config parameterizes world generation.
type Config struct {
	// Seed fully determines the world.
	Seed int64
	// Scale multiplies every population and event count; 1.0 reproduces
	// the paper's 68K-domain final snapshot, smaller values give fast
	// test worlds.
	Scale float64
}

// World is a generated ecosystem: every MTA-STS adopter across the four
// TLDs for the whole study period.
type World struct {
	Cfg     Config
	Domains []*Domain

	// byTLD indexes domains per TLD.
	byTLD map[string][]*Domain
}

// scaled applies the world scale to a paper-level count.
func (cfg Config) scaled(n int) int {
	if cfg.Scale <= 0 || cfg.Scale == 1.0 {
		return n
	}
	v := int(math.Round(float64(n) * cfg.Scale))
	if n > 0 && v == 0 {
		v = 1
	}
	return v
}

// policyProviderWeights is the Table 2 customer mix among third-party
// policy hosting (remainder: long-tail providers).
var policyProviderWeights = []struct {
	Name   string
	Weight float64
}{
	{"Tutanota", 0.266},
	{"DMARCReport", 0.255},
	{"PowerDMARC", 0.131},
	{"EasyDMARC", 0.078},
	{"Mailhardener", 0.054},
	{"URIports", 0.038},
	{"Sendmarc", 0.028},
	{"OnDMARC", 0.016},
	{"OtherPolicyHost", 0.134},
}

// Generate builds a world. It is deterministic in cfg.
func Generate(cfg Config) *World {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	w := &World{Cfg: cfg, byTLD: make(map[string][]*Domain)}
	idx := 0
	for _, tp := range TLDs {
		regular := cfg.scaled(tp.AdoptersEnd)
		var special int
		switch tp.TLD {
		case "com":
			special = cfg.scaled(PorkbunCount) + cfg.scaled(LucidgrowCount)
		case "org":
			special = cfg.scaled(OrgAdoptionSpikeCount)
		}
		if special > regular {
			special = regular
		}
		regular -= special

		start := cfg.scaled(tp.AdoptersStart)
		for i := 0; i < regular; i++ {
			d := w.newDomain(idx, tp.TLD)
			d.AdoptedAt = adoptionMonth(cfg.Seed, d.Name, start, regular)
			w.fixMigration(d)
			w.add(d)
			idx++
		}
		switch tp.TLD {
		case "com":
			for i := 0; i < cfg.scaled(LucidgrowCount); i++ {
				d := w.newDomain(idx, tp.TLD)
				d.AdoptedAt = clampMonth(LucidgrowMonth - 1 - int(hash64(cfg.Seed, d.Name, "lgadopt")%10))
				d.Lucidgrow = true
				d.MXClass = ClassThird
				d.MXProvider = "lucidgrow"
				d.PolicyClass = ClassThird
				d.PolicyProvider = "DMARCReport"
				d.Mode = "enforce"
				d.Mismatch = MismatchNone
				w.add(d)
				idx++
			}
			for i := 0; i < cfg.scaled(PorkbunCount); i++ {
				d := w.newDomain(idx, tp.TLD)
				half := cfg.scaled(PorkbunCount) / 2
				d.AdoptedAt = PorkbunStartMonth
				if i >= half {
					d.AdoptedAt = clampMonth(PorkbunStartMonth + 1)
				}
				d.Porkbun = true
				d.PolicyClass = ClassSelf
				d.MXClass = ClassSelf
				w.add(d)
				idx++
			}
		case "org":
			for i := 0; i < cfg.scaled(OrgAdoptionSpikeCount); i++ {
				d := w.newDomain(idx, tp.TLD)
				d.AdoptedAt = OrgAdoptionSpikeMonth
				d.OrgSpike = true
				w.add(d)
				idx++
			}
		}
	}

	// The one same-provider inconsistency of §4.5 (a typo that persisted
	// through every snapshot).
	lnIdx := -1
	for _, d := range w.Domains {
		if d.PolicyProvider == "Tutanota" && d.MXProvider == "tutanota" && d.Mismatch == MismatchNone {
			lnIdx = d.Index
			break
		}
	}
	if lnIdx >= 0 {
		d := w.Domains[lnIdx]
		d.Name = "laura-norman.com"
		d.Mismatch = MismatchTypo
	}

	// Third-party self-signed wave cohort (2024-06-08).
	waveLeft := cfg.scaled(SelfSignedWaveCount)
	for _, d := range w.Domains {
		if waveLeft == 0 {
			break
		}
		if d.PolicyClass == ClassThird && d.AdoptedAt < SelfSignedWaveMonth && !d.Lucidgrow {
			d.SelfSignWave = true
			waveLeft--
		}
	}
	return w
}

func (w *World) add(d *Domain) {
	w.Domains = append(w.Domains, d)
	w.byTLD[d.TLD] = append(w.byTLD[d.TLD], d)
}

// newDomain samples the persistent attributes of a regular adopter.
func (w *World) newDomain(idx int, tld string) *Domain {
	seed := w.Cfg.Seed
	name := fmt.Sprintf("d%06d.%s", idx, tld)
	d := &Domain{Name: name, TLD: tld, Index: idx}

	// Policy hosting class and provider.
	switch pick(unit(seed, name, "polclass"), PolicyClassifiedFrac*PolicyThirdFrac, PolicyClassifiedFrac*(1-PolicyThirdFrac), 1) {
	case 0:
		d.PolicyClass = ClassThird
		u := unit(seed, name, "polprov")
		weights := make([]float64, len(policyProviderWeights))
		for i, p := range policyProviderWeights {
			weights[i] = p.Weight
		}
		d.PolicyProvider = policyProviderWeights[pick(u, weights...)].Name
	case 1:
		d.PolicyClass = ClassSelf
	default:
		d.PolicyClass = ClassUnclassifiable
	}

	// MX class and provider. Tutanota policy customers almost always use
	// Tutanota mail too (the same-provider population of Figure 10).
	if d.PolicyProvider == "Tutanota" && unit(seed, name, "tutamx") < 0.98 {
		d.MXClass = ClassThird
		d.MXProvider = "tutanota"
	} else {
		switch pick(unit(seed, name, "mxclass"), MXClassifiedFrac*MXThirdFrac, MXClassifiedFrac*(1-MXThirdFrac), 1) {
		case 0:
			d.MXClass = ClassThird
			u := unit(seed, name, "mxprov")
			weights := make([]float64, len(mxProviders))
			for i, p := range mxProviders {
				weights[i] = p.Weight
			}
			d.MXProvider = mxProviders[pick(u, weights...)].Key
		case 1:
			d.MXClass = ClassSelf
		default:
			d.MXClass = ClassUnclassifiable
		}
	}

	// Policy mode.
	switch pick(unit(seed, name, "mode"), 0.20, 0.70, 1) {
	case 0:
		d.Mode = "enforce"
	case 1:
		d.Mode = "testing"
	default:
		d.Mode = "none"
	}

	// Inconsistency plan (persistent).
	rate := LatestRates.MismatchSelf
	if d.PolicyClass == ClassThird && d.MXClass == ClassThird {
		if sameProviderPair(d) {
			rate = LatestRates.MismatchSameProvider
		} else {
			rate = LatestRates.MismatchDiffProviders
		}
	}
	if unit(seed, name, "mismatch") < rate {
		r := LatestRates
		switch pick(unit(seed, name, "mmkind"), r.KindDomain, r.Kind3LD, r.KindTypo, 1) {
		case 0:
			if unit(seed, name, "obsolete") < r.ObsoleteMXFrac {
				d.Mismatch = MismatchDomainObsolete
			} else {
				d.Mismatch = MismatchDomainNever
			}
		case 1:
			d.Mismatch = Mismatch3LD
		case 2:
			d.Mismatch = MismatchTypo
		default:
			d.Mismatch = MismatchTLD
		}
	}

	// Tranco rank: a slice of the population is popular, with density
	// decaying down the rank list so the Figure 3 correlation emerges from
	// the generated domains themselves.
	d.Rank = sampleRank(seed, name)

	// Adoption month is assigned by the caller; the migration month for
	// obsolete-MX plans spreads over the Figure 9 window (2023-03 on).
	if d.Mismatch == MismatchDomainObsolete {
		lo := monthIndex(2023, 3)
		span := Months - lo
		d.MigrationMonth = lo + int(hash64(seed, name, "migmonth")%uint64(span))
	}

	return d
}

// fixMigration reconciles an obsolete-MX plan with the adoption month: a
// policy can only be outdated if the MX migration happened after the
// domain deployed MTA-STS. Domains whose drawn migration month precedes
// adoption are re-drawn into (AdoptedAt, end]; when no room remains the
// plan degrades to a never-matched mismatch.
func (w *World) fixMigration(d *Domain) {
	if d.Mismatch != MismatchDomainObsolete {
		return
	}
	if d.AdoptedAt >= Months-1 {
		d.Mismatch = MismatchDomainNever
		d.MigrationMonth = 0
		return
	}
	if d.MigrationMonth <= d.AdoptedAt {
		span := Months - 1 - d.AdoptedAt
		d.MigrationMonth = d.AdoptedAt + 1 + int(hash64(w.Cfg.Seed, d.Name, "migfix")%uint64(span))
	}
}

// sameProviderPair reports whether the ground-truth arrangement uses one
// provider for both policy and mail (Tutanota is the Table 2 case).
func sameProviderPair(d *Domain) bool {
	return d.PolicyProvider == "Tutanota" && d.MXProvider == "tutanota"
}

// rankBinWeight is the Figure 3 decay curve: expected % of each 10K-rank
// bin publishing MTA-STS, from ~1.2% at the top to ~0.4% at the tail.
func rankBinWeight(bin int) float64 {
	frac := float64(bin) / float64(TrancoBins-1)
	return 0.4 + 0.8*math.Pow(1-frac, 1.7)
}

// sampleRank draws a domain's Tranco rank (0 = unranked). The expected
// number of ranked MTA-STS domains in bin b is 10,000 * rankBinWeight(b)%,
// i.e. ~120 at the top decaying to ~40 at rank 1M.
func sampleRank(seed int64, name string) int {
	// Total expected ranked adopters across all bins, at paper scale.
	total := 0.0
	for b := 0; b < TrancoBins; b++ {
		total += 10000 * rankBinWeight(b) / 100
	}
	pRanked := total / float64(TotalAdoptersEnd)
	if unit(seed, name, "ranked") >= pRanked {
		return 0
	}
	// Pick the bin proportionally to its weight, then a uniform offset.
	u := unit(seed, name, "rankbin") * total
	acc := 0.0
	for b := 0; b < TrancoBins; b++ {
		w := 10000 * rankBinWeight(b) / 100
		acc += w
		if u < acc {
			off := int(hash64(seed, name, "rankoff") % 10000)
			return b*10000 + off + 1
		}
	}
	return TrancoBins*10000 - int(hash64(seed, name, "rankoff")%100) // tail guard
}

// adoptionMonth samples when a regular domain adopted: a share `start/n`
// of the pool is live at month 0 and the rest ramps in super-linearly
// (adoption "accelerates from 2023 onward", §3.2).
func adoptionMonth(seed int64, name string, start, n int) int {
	if n <= 0 {
		return 0
	}
	u := unit(seed, name, "adopt")
	startFrac := float64(start) / float64(n)
	if u < startFrac {
		return 0
	}
	// Map the remaining mass through an accelerating ramp: cumulative
	// fraction at month t is (t/T)^0.6 of the post-start pool — wait, an
	// accelerating curve needs exponent >1 on counts; invert: month =
	// T * q^(1/1.8) places more adoptions late.
	q := (u - startFrac) / (1 - startFrac)
	m := int(math.Ceil(float64(Months-1) * math.Pow(q, 1.0/1.8)))
	return clampMonth(m)
}

func clampMonth(m int) int {
	if m < 0 {
		return 0
	}
	if m > Months-1 {
		return Months - 1
	}
	return m
}

// AdoptedAt reports the domains live (record published) at snapshot t.
func (w *World) AdoptedAt(t int) []*Domain {
	var out []*Domain
	for _, d := range w.Domains {
		if d.AdoptedAt <= t {
			out = append(out, d)
		}
	}
	return out
}

// AdoptedCount counts live domains at t, optionally filtered by TLD
// ("" for all).
func (w *World) AdoptedCount(t int, tld string) int {
	pool := w.Domains
	if tld != "" {
		pool = w.byTLD[tld]
	}
	n := 0
	for _, d := range pool {
		if d.AdoptedAt <= t {
			n++
		}
	}
	return n
}

// TLSRPTAt reports whether domain d publishes a TLSRPT record at t: a
// per-domain threshold against a target fraction rising from ~38% to ~72%
// of MTA-STS adopters over the study (Figure 12 bottom), with the .se
// December 2021 revocation cohort.
func (w *World) TLSRPTAt(d *Domain, t int) bool {
	if d.AdoptedAt > t {
		return false
	}
	if d.TLD == "se" && t >= SeTLSRPTDropMonth &&
		unit(w.Cfg.Seed, d.Name, "sedrop") < float64(w.Cfg.scaled(SeTLSRPTDropCount))/math.Max(1, float64(w.AdoptedCount(SeTLSRPTDropMonth, "se"))) {
		return false
	}
	target := 0.38 + 0.34*float64(t)/float64(Months-1)
	return unit(w.Cfg.Seed, d.Name, "tlsrpt") < target
}
