package store

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DefaultSegmentBytes is the rotation threshold for log segments. Small
// enough that a long campaign spreads over many files (bounded loss
// surface, easy archival), large enough that the segment count stays in
// the hundreds at paper scale.
const DefaultSegmentBytes = 64 << 20

// segPrefix/segSuffix name log segments: seg-000001.jsonl, ...
const (
	segPrefix = "seg-"
	segSuffix = ".jsonl"
)

// line is the JSONL wire form of one log record. Values are base64 so
// arbitrary bytes survive the JSON string round trip byte-exactly.
type line struct {
	K string `json:"k"`
	V string `json:"v"`
}

// ref locates a key's newest record in the log.
type ref struct {
	seg int   // segment number
	off int64 // byte offset of the record's line
	ln  int32 // line length including the trailing newline
}

// Disk is the append-only on-disk backend: numbered JSONL segments in
// one directory plus an in-memory key index (a map to each key's newest
// record, and the keys in order for Scan) rebuilt by replaying the
// segments on Open. Writes append to the active (highest-numbered)
// segment and rotate at SegmentBytes; Sync flushes and fsyncs the
// active segment. A torn final line — the only damage a crash can
// inflict on an append-only log — is detected and truncated on Open.
type Disk struct {
	// SegmentBytes is the rotation threshold (DefaultSegmentBytes when
	// zero); set before the first Put.
	SegmentBytes int64

	mu      sync.Mutex
	dir     string
	index   map[string]ref
	keys    keyIndex         // the keys of index, in order, for Scan
	files   map[int]*os.File // open segment handles, including the active one
	active  int              // active segment number
	size    int64            // bytes across all segments
	actSize int64            // bytes in the active segment
	w       *bufio.Writer    // buffers appends to the active segment
	dirty   bool             // w holds unflushed bytes
	closed  bool
}

// OpenDisk opens (creating if needed) the store rooted at dir and
// replays every segment to rebuild the key index. A torn trailing line
// in the final segment is truncated; torn data anywhere else is
// reported as corruption.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Disk{
		dir:   dir,
		index: make(map[string]ref),
		files: make(map[int]*os.File),
	}
	if err := s.open(); err != nil {
		if cerr := s.closeFiles(); cerr != nil {
			err = fmt.Errorf("%w (cleanup: %v)", err, cerr)
		}
		return nil, err
	}
	return s, nil
}

// open replays every existing segment into the index and positions the
// writer at the end of the newest one.
func (s *Disk) open() error {
	segs, err := s.listSegments()
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		segs = []int{1}
	}
	for i, n := range segs {
		f, err := os.OpenFile(s.segPath(n), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("store: open segment %d: %w", n, err)
		}
		s.files[n] = f
		valid, err := s.replay(f, n)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		if valid < fi.Size() {
			if i != len(segs)-1 {
				return fmt.Errorf("store: segment %d corrupt at offset %d (not the active segment)", n, valid)
			}
			// Crash tore the final append; drop the partial line.
			if err := f.Truncate(valid); err != nil {
				return fmt.Errorf("store: truncate torn segment %d: %w", n, err)
			}
		}
		s.size += valid
		if i == len(segs)-1 {
			s.active = n
			s.actSize = valid
			if _, err := f.Seek(valid, 0); err != nil {
				return err
			}
			s.w = bufio.NewWriter(f)
		}
	}
	return nil
}

// closeFiles closes every open segment handle, keeping the first error.
func (s *Disk) closeFiles() error {
	var err error
	for _, f := range s.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// listSegments returns the existing segment numbers in ascending order.
func (s *Disk) listSegments() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("store: alien file %s in %s", name, s.dir)
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

func (s *Disk) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix))
}

// replay scans one segment from the start, indexing every well-formed
// line (later lines win), and returns the byte length of the valid
// prefix.
func (s *Disk) replay(f *os.File, seg int) (int64, error) {
	if _, err := f.Seek(0, 0); err != nil {
		return 0, err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	for {
		raw, err := r.ReadBytes('\n')
		if err != nil {
			// EOF with a partial line (no trailing \n) is a torn write;
			// the caller truncates. EOF with no bytes is a clean end.
			return off, nil
		}
		var l line
		if jsonErr := json.Unmarshal(raw, &l); jsonErr != nil || l.K == "" {
			return off, nil
		}
		s.setRef(l.K, ref{seg: seg, off: off, ln: int32(len(raw))})
		off += int64(len(raw))
	}
}

// setRef points key at its newest record and enters a key new to the
// map into the ordered index, unsorted until a Scan; the caller holds mu.
func (s *Disk) setRef(key string, rf ref) {
	n := len(s.index)
	s.index[key] = rf
	if len(s.index) > n {
		s.keys.add(key)
	}
}

// Get implements Store.
func (s *Disk) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rf, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	v, err := s.readValue(rf)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// readValue reads and decodes one indexed record; the caller holds mu.
func (s *Disk) readValue(rf ref) ([]byte, error) {
	if rf.seg == s.active && s.dirty {
		if err := s.w.Flush(); err != nil {
			return nil, err
		}
		s.dirty = false
	}
	f := s.files[rf.seg]
	if f == nil {
		return nil, fmt.Errorf("store: segment %d vanished", rf.seg)
	}
	buf := make([]byte, rf.ln)
	if _, err := f.ReadAt(buf, rf.off); err != nil {
		return nil, fmt.Errorf("store: read segment %d @%d: %w", rf.seg, rf.off, err)
	}
	var l line
	if err := json.Unmarshal(buf, &l); err != nil {
		return nil, fmt.Errorf("store: decode segment %d @%d: %w", rf.seg, rf.off, err)
	}
	return base64.StdEncoding.DecodeString(l.V)
}

// Put implements Store.
func (s *Disk) Put(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(key, value)
}

// Batch implements Store.
func (s *Disk) Batch(entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if err := s.append(e.Key, e.Value); err != nil {
			return err
		}
	}
	return nil
}

// append encodes and appends one record to the active segment, rotating
// first when full; the caller holds mu.
func (s *Disk) append(key string, value []byte) error {
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	segBytes := s.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if s.actSize >= segBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(line{K: key, V: base64.StdEncoding.EncodeToString(value)}); err != nil {
		return err
	}
	raw := buf.Bytes() // Encode appends the newline
	if _, err := s.w.Write(raw); err != nil {
		return err
	}
	s.dirty = true
	s.setRef(key, ref{seg: s.active, off: s.actSize, ln: int32(len(raw))})
	s.actSize += int64(len(raw))
	s.size += int64(len(raw))
	return nil
}

// rotate fsyncs and retires the active segment and starts the next one;
// the caller holds mu.
func (s *Disk) rotate() error {
	if err := s.syncActive(); err != nil {
		return err
	}
	next := s.active + 1
	f, err := os.OpenFile(s.segPath(next), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: rotate to segment %d: %w", next, err)
	}
	if err := s.syncDir(); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = fmt.Errorf("%w (and closing new segment: %v)", err, cerr)
		}
		return err
	}
	s.files[next] = f
	s.active = next
	s.actSize = 0
	s.w = bufio.NewWriter(f)
	return nil
}

// syncActive flushes the write buffer and fsyncs the active segment;
// the caller holds mu.
func (s *Disk) syncActive() error {
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			return err
		}
		s.dirty = false
	}
	if f := s.files[s.active]; f != nil {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs the store directory so segment creation is durable.
func (s *Disk) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Scan implements Store: a seek to the prefix's key range as of the
// call, O(log n + matches), then one Get per key as it is visited — a
// record overwritten mid-scan shows its newest value.
func (s *Disk) Scan(prefix string, fn func(key string, value []byte) error) error {
	s.mu.Lock()
	keys := s.keys.under(prefix)
	s.mu.Unlock()
	for _, k := range keys {
		v, _, err := s.Get(k) // an indexed key is never removed
		if err != nil {
			return err
		}
		if err := fn(k, v); err != nil {
			if err == ErrStop {
				return nil
			}
			return err
		}
	}
	return nil
}

// Sync implements Store: flush + fsync of the active segment.
func (s *Disk) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	return s.syncActive()
}

// Close implements Store: sync, then close every segment handle.
func (s *Disk) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncActive()
	for _, f := range s.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	s.closed = true
	return err
}

// SizeBytes implements Sizer: total bytes across all log segments.
func (s *Disk) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Segments reports how many log segments the store currently spans
// (status displays).
func (s *Disk) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}
