// Package scanner implements the paper's measurement pipeline (§4.1–§4.2):
// for every domain with an MTA-STS record it checks the record's syntax,
// retrieves the policy over HTTPS with a staged error taxonomy
// (DNS/TCP/TLS/HTTP/Syntax, Figure 5), probes each MX over SMTP/STARTTLS
// for PKIX-valid certificates (Figure 6), and tests the consistency of mx
// patterns against MX records (Figure 8).
//
// Two backends produce the same DomainResult schema: Live scans real
// sockets (the substrate servers), and Offline evaluates materialized
// artifacts — actual TXT strings, policy bodies, and certificate
// descriptors — through the same parsers and validators, which is how the
// pipeline runs at the paper's 68K-domain scale.
//
// Runner fans a backend out over per-stage worker pools (DNS discovery,
// policy fetch, MX probe; docs/PIPELINE.md). Both Live and Runner are
// instrumented: set their Obs field to an *obs.Registry to collect
// per-stage latency histograms (scan.*.seconds), the error-taxonomy
// counters behind Figures 4–6 (scan.policy.stage_errors.<stage>,
// scan.mx.cert.<problem>, scan.category.<category>), and a "scan"
// progress tracker; set Events to an *obs.EventSink for one JSONL
// "scan.domain" event per domain. Both fields default to nil, in which
// case the pipeline pays only nil checks — no clock reads, no
// allocations. The full metric catalog is docs/OBSERVABILITY.md.
package scanner
