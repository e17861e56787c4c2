package scanner

import "github.com/netsecurelab/mtasts/internal/sf"

// dedup is the scan-scoped result-sharing layer of the Runner: one
// instance lives exactly as long as one Runner.Run, so a shared result
// is never staler than the scan snapshot itself.
//
// What is safe to share, and under which key, is deliberate
// (docs/PIPELINE.md §dedup):
//
//   - probe results are keyed by MX host — the probe's verdict depends
//     only on the host (and the run-constant port), and shared MTAs are
//     where the cross-domain redundancy lives (§5 of the paper);
//   - fetch results are keyed by the exact policy domain, NOT by the
//     CNAME delegation target: two domains delegating to the same
//     provider can still be served different policies (per-tenant
//     vhosting, SNI), so only byte-identical requests may share.
//
// DNS-level sharing lives below the scanner, in the resolver's own
// singleflight + cache (resolver.queries.coalesced), where it also
// serves the single-domain ScanDomain path.
type dedup struct {
	fetch sf.Cache[FetchOutcome]
	probe sf.Cache[ProbeOutcome]
}
