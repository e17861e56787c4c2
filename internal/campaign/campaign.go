package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/store"
)

// DefaultShardSize is the per-shard domain count when Engine.ShardSize
// is unset: large enough to keep the runner's worker pool busy, small
// enough that a shard's results are a trivial memory bound.
const DefaultShardSize = 1024

// DomainSource streams a campaign's domain list in a stable order; the
// engine never materializes the full list. Returning an error from fn
// aborts the stream with that error.
type DomainSource func(fn func(domain string) error) error

// SliceSource adapts an in-memory domain list.
func SliceSource(domains []string) DomainSource {
	return func(fn func(string) error) error {
		for _, d := range domains {
			if err := fn(d); err != nil {
				return err
			}
		}
		return nil
	}
}

// Checkpoint marks one durably-stored shard. Count and Hash fingerprint
// the shard's domain slice so a resume over a *different* source list is
// detected instead of silently mixing scans.
type Checkpoint struct {
	Count int    `json:"count"`
	Hash  string `json:"hash"`
}

// Meta is the campaign's stored metadata.
type Meta struct {
	ID        string `json:"id"`
	ShardSize int    `json:"shard_size"`
	// WeeksDone lists completed weeks in ascending order.
	WeeksDone []int `json:"weeks_done,omitempty"`
}

// Engine runs campaign weeks: sharded, checkpointed, resumable scans
// whose results stream to a store.
type Engine struct {
	// Store persists records and checkpoints. Required.
	Store store.Store
	// Runner executes each shard's scan. Required.
	Runner *scanner.Runner
	// ID names the campaign inside the store. Required; no '/'.
	ID string
	// ShardSize is the per-shard domain count (DefaultShardSize if 0).
	ShardSize int
	// Obs, when non-nil, receives the campaign.* metrics cataloged in
	// docs/OBSERVABILITY.md.
	Obs *obs.Registry
	// Events, when non-nil, receives campaign.week.start/end and
	// campaign.shard.done events.
	Events *obs.EventSink
}

func (e *Engine) shardSize() int {
	if e.ShardSize > 0 {
		return e.ShardSize
	}
	return DefaultShardSize
}

// RunWeek scans one week of the campaign: it streams the source into
// shards, skips shards whose checkpoint already exists (resume), scans
// the rest via the Runner, and after the final shard records the week
// in the campaign metadata. Memory is bounded by one shard plus the
// store's index regardless of the source's length.
func (e *Engine) RunWeek(ctx context.Context, week int, src DomainSource) error {
	if err := validateID(e.ID); err != nil {
		return err
	}
	if e.Store == nil || e.Runner == nil {
		return fmt.Errorf("campaign: Engine needs both Store and Runner")
	}
	if week < 0 || week >= maxWeeks {
		return fmt.Errorf("campaign: week %d out of range [0, %d)", week, maxWeeks)
	}
	weekStart := time.Now()
	if e.Events != nil {
		e.Events.Emit("campaign.week.start", map[string]any{
			"campaign": e.ID, "week": week, "shard_size": e.shardSize(),
		})
	}
	var (
		shard   = make([]string, 0, e.shardSize())
		shardIx = 0
	)
	flush := func() error {
		if len(shard) == 0 {
			return nil
		}
		err := e.runShard(ctx, week, shardIx, shard)
		shardIx++
		shard = shard[:0]
		return err
	}
	err := src(func(d string) error {
		if d == "" {
			return fmt.Errorf("campaign: empty domain in source")
		}
		shard = append(shard, d)
		if len(shard) >= e.shardSize() {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return err
	}
	if shardIx >= maxShards {
		return fmt.Errorf("campaign: week %d needs %d shards, max %d", week, shardIx, maxShards)
	}
	if err := e.finishWeek(week); err != nil {
		return err
	}
	if e.Obs.Enabled() {
		e.Obs.Counter("campaign.weeks.completed").Inc()
		e.Obs.Histogram("campaign.week.seconds", nil).ObserveSince(weekStart)
	}
	if e.Events != nil {
		e.Events.Emit("campaign.week.end", map[string]any{
			"campaign": e.ID, "week": week, "shards": shardIx,
			"seconds": time.Since(weekStart).Seconds(),
		})
	}
	return nil
}

// runShard scans one shard unless its checkpoint says it is already
// stored.
func (e *Engine) runShard(ctx context.Context, week, ix int, domains []string) error {
	ck := Checkpoint{Count: len(domains), Hash: shardHash(domains)}
	ckKey := checkpointKey(e.ID, week, ix)
	if raw, ok, err := e.Store.Get(ckKey); err != nil {
		return err
	} else if ok {
		var have Checkpoint
		if err := json.Unmarshal(raw, &have); err != nil {
			return fmt.Errorf("campaign: decode checkpoint %s: %w", ckKey, err)
		}
		if have != ck {
			return fmt.Errorf("campaign: shard %d of week %d was checkpointed over a different domain list (have %d domains hash %s, resuming with %d hash %s) — the source changed between run and resume",
				ix, week, have.Count, have.Hash, ck.Count, ck.Hash)
		}
		e.Obs.Counter("campaign.shards.skipped").Inc()
		return nil
	}

	results := e.Runner.Run(ctx, domains)
	if ctx.Err() != nil {
		// Canceled placeholders are partial evidence; store nothing and
		// let a resume re-scan the shard cleanly.
		return ctx.Err()
	}
	// Run returns results sorted by domain, so the entries are in key
	// order: a shard's records lie back to back in the log in the order
	// a week's Scan visits them, and Disk reads them back in runs.
	entries := make([]store.Entry, 0, len(results)+1)
	for i := range results {
		rec := FromResult(&results[i])
		v, err := rec.Encode()
		if err != nil {
			return err
		}
		entries = append(entries, store.Entry{Key: recordKey(e.ID, week, rec.Domain), Value: v})
	}
	// The checkpoint goes last in the shard's one batch, under one Sync:
	// the store's durable-prefix rule means a crash can keep it only
	// together with every result before it (docs/CAMPAIGN.md
	// "Checkpoints and recovery").
	raw, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	entries = append(entries, store.Entry{Key: ckKey, Value: raw})
	ckStart := time.Now()
	if err := e.Store.Batch(entries); err != nil {
		return err
	}
	if err := e.Store.Sync(); err != nil {
		return err
	}
	if e.Obs.Enabled() {
		e.Obs.Histogram("campaign.checkpoint.seconds", nil).ObserveSince(ckStart)
		e.Obs.Counter("campaign.shards.completed").Inc()
		e.Obs.Counter("campaign.domains.stored").Add(int64(len(results)))
		if sz, ok := e.Store.(store.Sizer); ok {
			e.Obs.Gauge("campaign.store.bytes").Set(sz.SizeBytes())
		}
	}
	if e.Events != nil {
		e.Events.Emit("campaign.shard.done", map[string]any{
			"campaign": e.ID, "week": week, "shard": ix, "domains": len(domains),
		})
	}
	return nil
}

// finishWeek records week as done in the campaign metadata.
func (e *Engine) finishWeek(week int) error {
	meta, _, err := LoadMeta(e.Store, e.ID)
	if err != nil {
		return err
	}
	meta.ID = e.ID
	meta.ShardSize = e.shardSize()
	for _, w := range meta.WeeksDone {
		if w == week {
			return e.putMeta(meta)
		}
	}
	meta.WeeksDone = append(meta.WeeksDone, week)
	sort.Ints(meta.WeeksDone)
	return e.putMeta(meta)
}

func (e *Engine) putMeta(meta Meta) error {
	raw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := e.Store.Put(metaKey(e.ID), raw); err != nil {
		return err
	}
	return e.Store.Sync()
}

// LoadMeta reads a campaign's metadata; ok is false when the campaign
// has never completed a week.
func LoadMeta(s store.Store, id string) (meta Meta, ok bool, err error) {
	raw, ok, err := s.Get(metaKey(id))
	if err != nil || !ok {
		return Meta{}, false, err
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return Meta{}, false, fmt.Errorf("campaign: decode meta for %s: %w", id, err)
	}
	return meta, true, nil
}

// shardHash fingerprints a shard's domain slice.
func shardHash(domains []string) string {
	h := sha256.New()
	for _, d := range domains {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
