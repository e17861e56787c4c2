// Package bench is the repository's benchmark: the real-socket,
// service-to-store scan benchmark with a per-layer ledger that
// BENCHMARK.json points at (README.md in this directory is its manual).
//
// It measures the program from outside. The driver wires the scan
// service exactly as cmd/mtasts-serve does, drives it only over its HTTP
// API, and times calls into each layer's public functions; nothing
// outside this directory changes to be measured, and the spans it
// records live in its own store, not in the product's internal/obs
// registry.
//
// The pieces: world.go generates a workload's seeded population and its
// oracle; substrate.go serves that population on loopback from a child
// process; service.go wires and drives the service; run.go times the
// repetitions and reports the end-to-end metrics; trace.go, layers.go
// and ledger.go produce the per-layer metrics; metrics.go is the metric
// catalogue; compare.go is the repeatability tool.
package bench
