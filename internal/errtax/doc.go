// Package errtax is the scan pipeline's typed error taxonomy. Every
// failure mode the paper's measurement methodology distinguishes —
// invalid MTA-STS TXT records, failed policy retrievals, PKIX-invalid MX
// certificates, policy/MX inconsistencies (§5, Figure 4) — is a stable
// snake_case Code registered in a central registry (registry.go,
// cataloged for humans in docs/ERRORS.md). Producing layers (resolver,
// mtasts record/policy/fetch, smtpclient, dane) attach codes by
// returning *Error values; consuming layers (retry, scanner, report,
// obs) key off the code instead of matching error strings or booleans.
// The sending MTA (internal/mta) reads its RFC 8460 TLSRPT result types
// from the registry too (Info.TLSRPT, TLSRPTResult).
//
// Two invariants matter to the rest of the module:
//
//   - Message stability. An *Error formats exactly like its Cause, so
//     converting a sentinel from errors.New to errtax carries zero
//     observable change through %v/%s/%w formatting — the scanner's
//     ClassificationKey, pinned byte-identical by the equivalence tests,
//     does not move.
//
//   - Transience. Each Error carries the transient-vs-persistent verdict
//     that the retry layer previously recomputed with per-package
//     classifier funcs. Transient is the single classifier now: it reads
//     the bit from the first *Error in the chain and falls back to the
//     shared socket-level heuristic (TransientNet) for untyped errors.
package errtax
