package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// DefaultSegmentBytes is the rotation threshold for log segments. Small
// enough that a long campaign spreads over many files (bounded loss
// surface, easy archival), large enough that the segment count stays in
// the hundreds at paper scale.
const DefaultSegmentBytes = 64 << 20

// segPrefix/segSuffix name log segments: seg-000001.log, ...
const (
	segPrefix = "seg-"
	segSuffix = ".log"
)

// Record framing (the layout is in Disk's comment): the checksum's
// size, the most bytes the two lengths can take, and the longest
// record, which must fit ref.ln.
const (
	crcLen    = 4
	maxHeader = 2 * binary.MaxVarintLen64
	maxRecord = math.MaxInt32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// replayBufBytes sizes the replay reader: records up to this size are
// checked in place in its buffer, larger ones are copied out.
const replayBufBytes = 64 << 10

// replaySample is how many new keys a segment's replay indexes before
// it sizes the index for the rest of the segment, extrapolated from the
// bytes those keys took. The estimate never exceeds one key per
// replayMinRecord bytes left, so a sample of small records followed by
// large ones cannot reserve more index memory than the segment has
// bytes; past the estimate the index grows by append as before.
const (
	replaySample    = 256
	replayMinRecord = 128
)

// appendRecord appends the record for key and value to dst.
func appendRecord(dst []byte, key string, value []byte) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// recordLen decodes the lengths that open b and returns the whole
// record's length; ok is false when b holds no complete header, the key
// is empty, or the record would be longer than limit.
func recordLen(b []byte, limit int64) (n int64, ok bool) {
	klen, kn := binary.Uvarint(b)
	if kn <= 0 || klen == 0 {
		return 0, false
	}
	vlen, vn := binary.Uvarint(b[kn:])
	if vn <= 0 {
		return 0, false
	}
	limit = min(limit, maxRecord)
	if klen > uint64(limit) || vlen > uint64(limit) {
		return 0, false // checked apart so the sum cannot overflow
	}
	n = int64(kn+vn) + int64(klen) + int64(vlen) + crcLen
	return n, n <= limit
}

// decodeRecord checks that rec is exactly one record with a matching
// checksum and returns its key and value, both aliasing rec.
func decodeRecord(rec []byte) (key, value []byte, err error) {
	if n, ok := recordLen(rec, int64(len(rec))); !ok || n != int64(len(rec)) {
		return nil, nil, errors.New("bad record length")
	}
	body := rec[:len(rec)-crcLen]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(rec[len(body):]) {
		return nil, nil, errors.New("checksum mismatch")
	}
	klen, kn := binary.Uvarint(body)
	_, vn := binary.Uvarint(body[kn:])
	body = body[kn+vn:]
	return body[:klen], body[klen:len(body):len(body)], nil
}

// ref locates a key's newest record in the log.
type ref struct {
	off int64 // byte offset of the record in its segment
	seg int32 // segment number
	ln  int32 // record length, header and checksum included
}

// Disk is the append-only on-disk backend: numbered segments
// (seg-000001.log, ...) in one directory plus an in-memory key index (a
// map to each key's newest record, and the keys in order for Scan)
// rebuilt by replaying the segments on Open. Writes append to the
// active (highest-numbered) segment and rotate at SegmentBytes; Sync
// flushes and fsyncs the active segment.
//
// A segment is a run of records, each
//
//	uvarint(len key) | uvarint(len value) | key | value | CRC-32C
//
// with the key and value as raw bytes and the checksum (Castagnoli,
// little-endian) over every byte before it. Every read checks the
// checksum and the stored key against the one the index holds. Get
// reads one record; Scan reads chunks of up to scanChunkBytes of
// records into a pooled buffer its values alias, one ReadAt per run of
// a chunk's records that lie back to back in a segment, however their
// keys interleave. On Open, a record that is short, claims more bytes
// than its segment has left, or fails its checksum ends the segment's
// valid prefix: at the end of the active segment that is a torn append
// — the only damage a crash can inflict on an append-only log — and is
// truncated; in a sealed segment it is corruption and Open fails.
//
// A directory written in the store's first format (seg-*.jsonl: one
// JSON line per record, values in base64) is migrated by Open, once:
// see legacy.go.
//
// File I/O goes through a seam (fs.go) that lets tests crash the store
// at any write, fsync, truncate, create, remove or directory fsync. The
// first failed write or fsync poisons the Disk, since Linux reports a
// writeback error only once: every later Put, Batch, Sync, rotation and
// Close returns it, Get and Scan keep serving every record that reached
// a file, and reopening recovers what is durable.
type Disk struct {
	// SegmentBytes is the rotation threshold (DefaultSegmentBytes when
	// zero); set before the first Put.
	SegmentBytes int64

	mu      sync.Mutex
	fs      fsys
	dir     string
	index   map[string]int // key → its slot in refs
	refs    []ref          // each key's newest record, by slot
	keys    keyIndex       // the keys of index, in order, for Scan
	files   map[int]file   // open segment handles, including the active one
	active  int            // active segment number
	size    int64          // bytes across all segments
	actSize int64          // bytes in the active segment, w's included
	w       *bufio.Writer  // buffers appends to the active segment
	scratch []byte         // encodes one record at a time for w
	err     error          // the first failed write or fsync, returned ever after
	closed  bool
}

// OpenDisk opens (creating if needed) the store rooted at dir and
// replays every segment to rebuild the key index. A torn trailing
// record in the final segment is truncated; a bad record anywhere else
// is reported as corruption. A store in the legacy JSONL format is
// migrated first.
func OpenDisk(dir string) (*Disk, error) { return openDisk(dir, osFS{}) }

// openDisk is OpenDisk over the given file system.
func openDisk(dir string, fs fsys) (*Disk, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Disk{
		fs:    fs,
		dir:   dir,
		index: make(map[string]int),
		files: make(map[int]file),
	}
	if err := s.open(); err != nil {
		if cerr := s.closeFiles(); cerr != nil {
			err = fmt.Errorf("%w (cleanup: %v)", err, cerr)
		}
		return nil, err
	}
	return s, nil
}

// open replays every existing segment into the index, positions the
// writer at the end of the newest one, then migrates any legacy
// segments.
func (s *Disk) open() error {
	segs, err := s.listSegments(segSuffix)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		segs = []int{1}
	}
	for i, n := range segs {
		f, err := s.fs.OpenFile(s.segPath(n, segSuffix), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("store: open segment %d: %w", n, err)
		}
		s.files[n] = f
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		valid, err := s.replay(f, n, fi.Size())
		if err != nil {
			return err
		}
		if valid < fi.Size() {
			if i != len(segs)-1 {
				return fmt.Errorf("store: segment %d corrupt at offset %d (not the active segment)", n, valid)
			}
			// Crash tore the final append; drop the partial record.
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
	return s.migrateLegacy()
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

// listSegments returns the numbers of the existing segments named with
// suffix, in ascending order.
func (s *Disk) listSegments(suffix string) ([]int, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+suffix, &n); err != nil || n <= 0 || n > math.MaxInt32 {
			return nil, fmt.Errorf("store: alien file %s in %s", name, s.dir)
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

func (s *Disk) segPath(n int, suffix string) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", segPrefix, n, suffix))
}

// replay reads one segment of size bytes from the start, indexing every
// good record (later records win), and returns the byte length of the
// valid prefix. Each record's lengths are checked against the bytes
// left before anything is read or allocated for it.
func (s *Disk) replay(f file, seg int, size int64) (int64, error) {
	if _, err := f.Seek(0, 0); err != nil {
		return 0, err
	}
	r := bufio.NewReaderSize(f, replayBufBytes)
	var big []byte // holds a record too large for r's buffer
	var off int64
	added := 0 // keys this segment has entered into the index
	for off < size {
		hdr, err := r.Peek(maxHeader) // short near the end of the file
		if err != nil && err != io.EOF {
			return 0, fmt.Errorf("store: read segment %d @%d: %w", seg, off, err)
		}
		n, ok := recordLen(hdr, size-off)
		if !ok {
			return off, nil
		}
		var rec []byte
		inBuf := n <= int64(r.Size())
		if inBuf {
			rec, err = r.Peek(int(n))
		} else {
			if int64(cap(big)) < n {
				big = make([]byte, n)
			}
			rec = big[:n]
			_, err = io.ReadFull(r, rec)
		}
		if err != nil {
			return 0, fmt.Errorf("store: read segment %d @%d: %w", seg, off, err)
		}
		key, _, err := decodeRecord(rec)
		if err != nil {
			return off, nil
		}
		rf := ref{seg: int32(seg), off: off, ln: int32(n)}
		if slot, ok := s.index[string(key)]; ok {
			s.refs[slot] = rf // an overwrite: no key string to allocate
		} else {
			if added++; added == replaySample {
				rest := size - off - n
				s.reserve(int(min(int64(added)*rest/(off+n), rest/replayMinRecord)))
			}
			s.setRef(string(key), rf)
		}
		if inBuf {
			if _, err := r.Discard(len(rec)); err != nil {
				return 0, err
			}
		}
		off += n
	}
	return off, nil
}

// reserve makes room in the index for n more keys in one step. Growing
// by append's small steps would allocate about five times the final
// size on the way; a reopen's garbage is what paces the collector under
// it. The map is rebuilt to size only while it holds no more than the
// sample, so the copy stays small.
func (s *Disk) reserve(n int) {
	s.refs = slices.Grow(s.refs, n)
	s.keys.tail = slices.Grow(s.keys.tail, n)
	if len(s.index) <= replaySample {
		index := make(map[string]int, len(s.index)+n)
		for k, slot := range s.index {
			index[k] = slot
		}
		s.index = index
	}
}

// setRef points key at its newest record and enters a key new to the
// map into the ordered index, unsorted until a Scan; the caller holds mu.
func (s *Disk) setRef(key string, rf ref) {
	if slot, ok := s.index[key]; ok {
		s.refs[slot] = rf
		return
	}
	s.index[key] = len(s.refs)
	s.refs = append(s.refs, rf)
	s.keys.add(key)
}

// Get implements Store.
func (s *Disk) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	v, err := s.readValue(key, s.refs[slot])
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// readValue reads key's record with one ReadAt, checks it, and returns
// its value as a subslice of the one buffer read, first flushing the
// write buffer if the record is still in it; the caller holds mu.
func (s *Disk) readValue(key string, rf ref) ([]byte, error) {
	if s.unflushed(rf) {
		if err := s.flush(); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, rf.ln)
	if err := s.readRun(buf, rf); err != nil {
		return nil, err
	}
	return checkRecord(key, rf, buf)
}

// unflushed reports whether rf's record still sits, in whole or in
// part, in the write buffer; the caller holds mu.
func (s *Disk) unflushed(rf ref) bool {
	return int(rf.seg) == s.active && rf.off+int64(rf.ln) > s.actSize-int64(s.w.Buffered())
}

// readRun fills buf from rf's segment at rf's offset with one ReadAt;
// the caller holds mu.
func (s *Disk) readRun(buf []byte, rf ref) error {
	f := s.files[int(rf.seg)]
	if f == nil {
		return fmt.Errorf("store: segment %d vanished", rf.seg)
	}
	if _, err := f.ReadAt(buf, rf.off); err != nil {
		return fmt.Errorf("store: read segment %d @%d: %w", rf.seg, rf.off, err)
	}
	return nil
}

// checkRecord checks that rec, read from rf, is one intact record
// stored for key, and returns its value as a subslice of rec.
func checkRecord(key string, rf ref, rec []byte) ([]byte, error) {
	k, v, err := decodeRecord(rec)
	if err == nil && string(k) != key {
		err = fmt.Errorf("holds key %q, not %q", k, key)
	}
	if err != nil {
		return nil, fmt.Errorf("store: segment %d @%d: %w", rf.seg, rf.off, err)
	}
	return v, nil
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
	if s.err != nil {
		return s.err
	}
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	if int64(len(key))+int64(len(value)) > maxRecord-maxHeader-crcLen {
		return fmt.Errorf("store: record for %q is %d bytes, over the %d-byte limit", key, len(key)+len(value), maxRecord)
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
	s.scratch = appendRecord(s.scratch[:0], key, value)
	n, err := s.w.Write(s.scratch)
	if err != nil {
		s.actSize += int64(n) // what the file and w hold, so readValue knows what is flushed
		return s.fail(err)
	}
	s.setRef(key, ref{seg: int32(s.active), off: s.actSize, ln: int32(n)})
	s.actSize += int64(n)
	s.size += int64(n)
	return nil
}

// rotate fsyncs and retires the active segment and starts the next one;
// the caller holds mu.
func (s *Disk) rotate() error {
	if err := s.syncActive(); err != nil {
		return err
	}
	next := s.active + 1
	f, err := s.fs.OpenFile(s.segPath(next, segSuffix), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
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
	if err := s.flush(); err != nil {
		return err
	}
	if err := s.files[s.active].Sync(); err != nil {
		return s.fail(err)
	}
	return nil
}

// flush writes the buffered appends to the active segment; the caller
// holds mu.
func (s *Disk) flush() error {
	if s.err != nil {
		return s.err
	}
	if err := s.w.Flush(); err != nil {
		return s.fail(err)
	}
	return nil
}

// fail poisons the Disk with its first write or fsync error; the
// caller holds mu.
func (s *Disk) fail(err error) error {
	if s.err == nil {
		s.err = fmt.Errorf("store: %s: writes disabled after: %w", s.dir, err)
	}
	return s.err
}

// syncDir fsyncs the store directory so segment creation is durable.
func (s *Disk) syncDir() error {
	d, err := s.fs.OpenFile(s.dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return s.fail(err)
	}
	return nil
}

// scanChunkBytes bounds the records Scan reads under one hold of mu; a
// record larger than this is a chunk of its own.
const scanChunkBytes = 16 << 10

// scanRun is one span of a chunk's records that lie back to back in a
// segment, read with one ReadAt.
type scanRun struct {
	off, end int64 // the span in its segment
	seg      int32
	at       int // where the span starts in the chunk's data
}

// scanChunk is Scan's reusable state: the buffer a chunk's records are
// read into, their refs in key order, where each record starts in the
// buffer, the runs they were read in, and a table that finds a run by
// where it ends.
type scanChunk struct {
	buf   []byte
	refs  []ref
	pos   []int
	runs  []scanRun
	slots []int32 // open-addressed, run index + 1 by hash of (seg, end); 0 is empty
}

// group joins each of c.refs, in key order, to the run that it extends
// (same segment, starting where the run ends), or else to a new run,
// and sets c.pos to each record's run. A record that does not extend
// the previous record's run is looked up in a hash table of runs by
// where they end, so the work per record stays constant however many
// shards the chunk draws from; a chunk of one run never builds it.
func (c *scanChunk) group() {
	c.runs, c.pos, c.slots = c.runs[:0], c.pos[:0], c.slots[:0]
	last := -1
	for _, rf := range c.refs {
		r := last
		if r < 0 || c.runs[r].end != rf.off || c.runs[r].seg != rf.seg {
			r = c.find(rf, last)
		}
		c.runs[r].end += int64(rf.ln)
		c.pos = append(c.pos, r)
		last = r
	}
}

// find files run last, the previous record's, under where it now ends,
// then returns the run rf extends or else a new one. The table is built
// on first use with more than twice as many slots as the chunk has
// records, which bounds its load, since each record files at most one
// run; an entry left behind when its run grows is stale and skipped.
func (c *scanChunk) find(rf ref, last int) int {
	if last >= 0 {
		if len(c.slots) == 0 {
			n := 1 << bits.Len(uint(2*len(c.refs)))
			c.slots = slices.Grow(c.slots, n)[:n]
			clear(c.slots)
		}
		h := c.slot(c.runs[last].seg, c.runs[last].end)
		for c.slots[h] != 0 {
			h = (h + 1) & (len(c.slots) - 1)
		}
		c.slots[h] = int32(last + 1)
		for h := c.slot(rf.seg, rf.off); c.slots[h] != 0; h = (h + 1) & (len(c.slots) - 1) {
			if r := int(c.slots[h] - 1); c.runs[r].end == rf.off && c.runs[r].seg == rf.seg {
				return r
			}
		}
	}
	c.runs = append(c.runs, scanRun{off: rf.off, end: rf.off, seg: rf.seg})
	return len(c.runs) - 1
}

// slot is where the table's probe for a run ending at (seg, end) starts.
func (c *scanChunk) slot(seg int32, end int64) int {
	return int((uint64(end)^uint64(seg)<<40)*0x9e3779b97f4a7c15>>32) & (len(c.slots) - 1)
}

// scanChunks pools scanChunk across Scans, so the buffers in use are
// bounded by the concurrent Scans, not by the Scans made.
var scanChunks = sync.Pool{New: func() any { return &scanChunk{buf: make([]byte, scanChunkBytes)} }}

// Scan implements Store: a seek to the prefix's key range as of the
// call, O(log n + matches), then the keys' records in chunks of at most
// scanChunkBytes. Each chunk's refs are looked up and its records read
// under one hold of mu, grouped by where they lie in the log: one
// ReadAt per run of the chunk's records that lie back to back in a
// segment. A shard's records are appended in key order, so a chunk
// drawn from S shards is about S runs, however their keys interleave.
// Every record is then checked as Get checks it, outside the lock, and
// handed to fn in key order. A record overwritten mid-scan shows the
// value that was newest when its chunk was read. Values alias a pooled
// buffer and are valid until fn returns.
func (s *Disk) Scan(prefix string, fn func(key string, value []byte) error) error {
	s.mu.Lock()
	keys := s.keys.under(prefix)
	s.mu.Unlock()
	if len(keys) == 0 {
		return nil
	}
	c := scanChunks.Get().(*scanChunk)
	defer scanChunks.Put(c)
	for len(keys) > 0 {
		data, err := s.readChunk(keys, c)
		if err != nil {
			return err
		}
		for i, rf := range c.refs {
			p, q := c.pos[i], c.pos[i]+int(rf.ln)
			v, err := checkRecord(keys[i], rf, data[p:q:q])
			if err != nil {
				return err
			}
			if err := fn(keys[i], v); err != nil {
				if err == ErrStop {
					return nil
				}
				return err
			}
		}
		keys = keys[len(c.refs):]
	}
	return nil
}

// readChunk reads the records of the longest prefix of keys that fits
// scanChunkBytes (at least one key) into c.buf, or into a buffer of its
// own when one record alone is larger, sets c.refs to their refs and
// c.pos to where each starts, and returns the buffer.
//
// c.pos holds each record's run, from group, until the runs are laid
// out in the buffer, then where the record starts. The reads are
// exactly the records' bytes, one ReadAt per run.
func (s *Disk) readChunk(keys []string, c *scanChunk) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.refs = c.refs[:0]
	total, dirty := 0, false
	for _, k := range keys {
		rf := s.refs[s.index[k]] // an indexed key is never removed
		if len(c.refs) > 0 && total+int(rf.ln) > scanChunkBytes {
			break
		}
		c.refs = append(c.refs, rf)
		total += int(rf.ln)
		dirty = dirty || s.unflushed(rf)
	}
	c.group()
	if dirty {
		if err := s.flush(); err != nil {
			return nil, err
		}
	}
	data := c.buf
	if total > len(data) {
		data = make([]byte, total)
	}
	data = data[:total]
	at := 0
	for r := range c.runs {
		run := &c.runs[r]
		run.at = at
		n := int(run.end - run.off)
		if err := s.readRun(data[at:at+n], ref{off: run.off, seg: run.seg}); err != nil {
			return nil, err
		}
		at += n
	}
	for i, rf := range c.refs {
		run := &c.runs[c.pos[i]]
		c.pos[i] = run.at + int(rf.off-run.off)
	}
	return data, nil
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
