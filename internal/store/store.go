package store

import "errors"

// Entry is one key-value pair, as submitted to Batch and as replayed
// from the on-disk log.
type Entry struct {
	Key   string
	Value []byte
}

// ErrStop, returned by a Scan callback, stops the scan early without
// error — the idiom for "found what I needed".
var ErrStop = errors.New("store: stop scan")

// Store is the campaign layer's persistence interface. Implementations
// are safe for concurrent use. Keys are arbitrary non-empty strings;
// values are arbitrary bytes (the campaign layer stores compact JSON).
// A Put for an existing key replaces it (last write wins).
type Store interface {
	// Get returns the current value for key; ok is false when the key
	// has never been written.
	Get(key string) (value []byte, ok bool, err error)
	// Put writes one pair. Durability is only guaranteed after Sync.
	Put(key string, value []byte) error
	// Batch writes the entries in order, equivalent to sequential Puts
	// but letting the backend amortize locking and buffering.
	//
	// Writes are durable as a prefix: after a crash, the surviving
	// writes since the last Sync are some prefix of those made, in
	// order. Disk gets this from replay, which keeps the longest valid
	// prefix of the active segment, and from rotate, which fsyncs the old
	// segment before the next one exists. So an entry placed after
	// others in one Batch (the campaign's shard checkpoint after its
	// results) survives only if they all do.
	Batch(entries []Entry) error
	// Scan visits every pair whose key has the given prefix, in
	// ascending key order, until fn returns an error (ErrStop stops
	// cleanly). Mutating the store from fn is unsupported; a nested
	// Scan is fine. value belongs to the store and is valid only until
	// fn returns: Disk reuses the buffer behind it, Mem hands out its
	// internal slice. fn must not modify it, and copies what it keeps.
	Scan(prefix string, fn func(key string, value []byte) error) error
	// Sync makes every completed write durable before returning. The
	// campaign engine calls it once per shard, after the Batch that ends
	// in the shard's checkpoint.
	Sync() error
	// Close releases resources; the store is unusable afterwards.
	Close() error
}

// Sizer is optionally implemented by backends that can report how many
// bytes of storage they occupy (the campaign.store.bytes gauge).
type Sizer interface {
	SizeBytes() int64
}

// Len counts the keys under a prefix — a convenience over Scan shared
// by status displays and tests.
func Len(s Store, prefix string) (int, error) {
	n := 0
	err := s.Scan(prefix, func(string, []byte) error {
		n++
		return nil
	})
	return n, err
}
