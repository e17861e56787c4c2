// Package campaign turns the one-shot scanner into the paper's actual
// instrument: a longitudinal scan-campaign engine that runs repeated
// (weekly, in the paper's §3 methodology) scans over millions of
// domains, persists every verdict through a store.Store, survives
// crashes, and diffs any two stored weeks.
//
// The engine shards the domain list and scans shards sequentially —
// each shard internally parallel via scanner.Runner — so peak memory is
// bounded by one shard regardless of campaign size; results stream to
// the store as each shard completes and are never accumulated run-wide.
// Each shard's results and its checkpoint, keyed by (campaign ID, week,
// shard), go to the store in one batch, checkpoint last, under one sync;
// the store keeps a prefix of that batch across a crash, so a
// checkpoint is never durable without its results. A killed run resumed
// over the same source skips checkpointed shards and idempotently
// re-scans at most the one partial shard, so the exported week snapshot
// is byte-identical to an uninterrupted run (proven by resume_test.go).
//
// Diff merge-joins two stored weeks in ascending domain order with O(1)
// memory, classifying each domain as adopted, removed, newly
// misconfigured, newly healthy, or changed, and tallying which errtax
// codes were added and cleared — the feedstock of the paper's
// longitudinal adoption/churn/misconfiguration figures.
//
// docs/CAMPAIGN.md documents the store layout, checkpoint and recovery
// semantics, the diff schema, and the cmd/mtasts-campaign runbook;
// docs/ARCHITECTURE.md places the layer in the module's overall map.
package campaign
