// Package sf implements singleflight-style call collapsing and a
// scan-scoped memoizing cache, with no dependencies beyond the standard
// library.
//
// The scan pipeline's redundancy is cross-domain: thousands of domains
// share a handful of MX providers, so a naive per-domain scan probes
// the same host:port thousands of times (§5 of the paper; the same
// observation drives batched probing in Internet-wide TLS scans). A
// Group collapses *concurrent* duplicate calls into one in-flight
// execution whose result fans out to every waiter, and forgets it when
// the call returns. A Cache computes each key once and remembers the
// result for its own lifetime — the "scan-scoped" part: one Cache
// lives exactly as long as one Runner.Run, so staleness is bounded by
// the snapshot the scan itself defines.
package sf
