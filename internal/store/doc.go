// Package store is the campaign layer's persistence abstraction: a
// small ordered key-value interface (get / put / scan / batch) with two
// backends behind it, following the module's noop/real adapter split.
//
// Mem keeps everything in a map and exists so tests, experiments and
// one-shot runs pay no I/O. Disk is the production shape for
// longitudinal scans: an append-only log of numbered segment files plus
// an in-memory index rebuilt on open, with explicit fsync'd sync points.
// Writes survive a crash as a prefix, so the campaign engine batches a
// shard's checkpoint after its results and syncs once: the checkpoint
// cannot outlive what it vouches for. Updates are last-write-wins; nothing is
// ever rewritten in place, so a crash can at worst tear the final
// record of the active segment, which Open detects and truncates away.
//
// A Disk record is uvarint(len key) | uvarint(len value) | key | value
// | CRC-32C, the checksum (Castagnoli, little-endian) covering every
// byte before it; keys and values are raw bytes. Every read verifies
// the checksum and the stored key. On Open a short, over-long or
// checksum-failing record ends a segment's valid prefix: the active
// segment is truncated there (a torn append), a sealed segment is
// corruption and Open fails. A directory in the first on-disk format
// (JSONL lines with base64 values) is migrated to records by Open,
// once and crash-safely (legacy.go).
//
// Scan visits keys in ascending lexicographic order in both backends —
// the property the campaign layer builds byte-identical snapshot
// exports and merge-join diffs on. Both answer it from one ordered key
// index (index.go): a sorted run plus the keys first written since the
// last Scan, which the next Scan merges in. A prefix Scan is a
// binary-search seek, O(log n + matches), over the keys present when it
// was called; a write is an append. Disk's Scan then reads its records
// a chunk of up to 16 KiB at a time, one ReadAt per run of records
// adjacent in a segment, into a pooled buffer: values are valid only
// until the callback returns. The campaign appends each shard's
// records in key order, so a week reads back in long runs.
// docs/CAMPAIGN.md specifies the on-disk format and its recovery
// semantics; the property test in equiv_test.go pins the two backends
// to observational equivalence under random operation sequences.
package store
