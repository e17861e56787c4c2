// Package scansvc turns the CLI-orchestrated scanner into a
// long-running service: a durable job queue over internal/store feeding
// the staged scanner.Runner through the campaign engine's sharded
// checkpoints, so a submitted job survives crashes and resumes to
// byte-identical results exactly like a campaign week (docs/SERVICE.md).
//
// The package also owns the run-setup helpers the one-shot commands
// (cmd/mtasts-scan, cmd/reproduce, cmd/mtasts-campaign) previously
// duplicated: telemetry wiring (StartTelemetry), runner construction
// (RunnerSpec), and the live scan stack (LiveSpec).
//
// Layering: Service wraps the queue and executor; Handler/Endpoints
// expose it over HTTP (submit/list/cancel jobs, stream results, ingest
// TLSRPT aggregate reports); per-tenant token buckets (TenantLimiter)
// and a bounded executor keep one tenant from starving the rest.
package scansvc
