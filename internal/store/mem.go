package store

import "sync"

// Mem is the in-memory backend: a map and the ordered key index under
// a mutex. It exists so tests, experiments and one-shot campaign runs
// use the campaign engine without touching disk; Sync and Close no-op.
type Mem struct {
	mu   sync.RWMutex
	m    map[string][]byte
	keys keyIndex // the keys of m, in order, for Scan
	size int64
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{m: make(map[string][]byte)}
}

// Get implements Store.
func (s *Mem) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Put implements Store.
func (s *Mem) Put(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(key, value)
	return nil
}

// Batch implements Store.
func (s *Mem) Batch(entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		s.put(e.Key, e.Value)
	}
	return nil
}

// put replaces one pair; the caller holds the write lock.
func (s *Mem) put(key string, value []byte) {
	if old, ok := s.m[key]; ok {
		s.size -= int64(len(key) + len(old))
	} else {
		s.keys.add(key)
	}
	s.m[key] = append([]byte(nil), value...)
	s.size += int64(len(key) + len(value))
}

// Scan implements Store: keys (a seek, O(log n + matches)) and values
// are captured at the call, under the write lock the index's merge needs.
func (s *Mem) Scan(prefix string, fn func(key string, value []byte) error) error {
	s.mu.Lock()
	keys := s.keys.under(prefix)
	values := make([][]byte, len(keys))
	for i, k := range keys {
		values[i] = s.m[k]
	}
	s.mu.Unlock()
	for i, k := range keys {
		if err := fn(k, values[i]); err != nil {
			if err == ErrStop {
				return nil
			}
			return err
		}
	}
	return nil
}

// Sync implements Store (memory is always "durable").
func (s *Mem) Sync() error { return nil }

// Close implements Store.
func (s *Mem) Close() error { return nil }

// SizeBytes implements Sizer: the sum of live key and value lengths.
func (s *Mem) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}
