// Package obs is the scanner's observability layer: a dependency-free
// (stdlib-only) metrics registry, stage timers, progress tracking, and a
// structured scan-event sink, sized for the paper's apparatus (weekly
// scans over 87M domains for 31 months — §3.1), where per-stage failure
// rates, probe latencies, and resolver behavior must be watchable while a
// run is in flight and analyzable after it ends.
//
// # Design
//
// The package has four building blocks:
//
//   - Registry: a named collection of Counters (monotonic, atomic),
//     Gauges (instantaneous, atomic), GaugeFuncs (computed at snapshot
//     time), fixed-bucket latency Histograms, and Progress trackers.
//     Metric names are dotted paths ("resolver.cache.hits"); variable
//     dimensions are encoded as a final name segment
//     ("scan.policy.stage_errors.tls"), keeping the implementation free
//     of label maps on the hot path.
//
//   - Span: a lightweight stage timer. StartSpan(ctx, "policy.fetch")
//     (or Registry.StartSpan) captures a start time; End/EndErr records
//     a latency observation into "<name>.seconds", increments
//     "<name>.total", and — on error — "<name>.errors". Spans are values
//     created per call; they allocate nothing beyond themselves and are
//     free when the registry is nil.
//
//   - EventSink: a line-delimited JSON (JSONL) writer for per-domain
//     scan events, the post-hoc analysis channel. Each Emit produces one
//     self-contained JSON object with a timestamp and an event name.
//
//   - HTTP export: Registry.Handler serves the full snapshot as a JSON
//     document (expvar-style flat map) or, when the request asks for it,
//     in the Prometheus text format; Registry.Serve mounts it at
//     /metrics together with /debug/scanprogress (progress only) and
//     the stdlib /debug/vars.
//
// # Nil safety
//
// Every constructor-returned type is nil-safe: a nil *Registry hands out
// nil *Counter/*Gauge/*Histogram/*Progress/*Span handles whose methods
// are no-ops, so library code instruments unconditionally —
//
//	r.Obs.Counter("scan.domains.total").Inc()
//
// — and callers that never set Obs pay only a nil check. Hot paths that
// would otherwise call time.Now guard on Enabled() (or a nil handle) so
// the disabled configuration performs no clock reads.
//
// The metric catalog, bucket layouts, and the mapping from metric names
// to the paper's pipeline stages (§4.1, Figure 5) are documented in
// docs/OBSERVABILITY.md.
package obs
