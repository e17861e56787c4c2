package store

// This file is the only code that knows the store's first on-disk
// format, and exists only to migrate it: delete it once no store
// written in that format is left.

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// legacySuffix names the first format's segments (seg-000001.jsonl,
// ...): one JSON line per record, with the value in base64.
const legacySuffix = ".jsonl"

type legacyLine struct {
	K string `json:"k"`
	V string `json:"v"`
}

// migrateLegacy rewrites a legacy store in the record format, once. It
// replays the legacy segments, appends every live record whose newest
// copy is in one of them to the active segment in key order, makes that
// durable (segment, then directory), and only then deletes the legacy
// files and fsyncs the directory again. A crash at any step reopens to
// the same contents: until the deletes are durable the legacy files
// replay again, and a key already copied is not copied twice — its copy
// is in a .log segment, and every .log record is newer than every
// legacy one. Open calls it after replaying the .log segments.
func (s *Disk) migrateLegacy() error {
	segs, err := s.listSegments(legacySuffix)
	if err != nil || len(segs) == 0 {
		return err
	}
	files := make(map[int]file, len(segs))
	closeAll := func() {
		for n, f := range files {
			//lint:ignore errdrop opened read-only: a failed close loses nothing
			f.Close()
			delete(files, n)
		}
	}
	defer closeAll()
	old := make(map[string]ref)
	for i, n := range segs {
		f, err := s.fs.OpenFile(s.segPath(n, legacySuffix), os.O_RDONLY, 0)
		if err != nil {
			return fmt.Errorf("store: open legacy segment %d: %w", n, err)
		}
		files[n] = f
		valid, err := replayLegacy(f, n, old)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		// A torn last line in the last legacy segment is a crash's torn
		// append and is dropped with the file; anywhere else it is damage.
		if valid < fi.Size() && i != len(segs)-1 {
			return fmt.Errorf("store: legacy segment %d corrupt at offset %d (not the last segment)", n, valid)
		}
	}

	var keys []string
	for k := range old {
		if _, ok := s.index[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, err := readLegacy(files[int(old[k].seg)], old[k])
		if err != nil {
			return err
		}
		if err := s.append(k, v); err != nil {
			return err
		}
	}
	if err := s.syncActive(); err != nil {
		return err
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	closeAll()
	for _, n := range segs {
		if err := s.fs.Remove(s.segPath(n, legacySuffix)); err != nil {
			return fmt.Errorf("store: remove migrated legacy segment %d: %w", n, err)
		}
	}
	return s.syncDir()
}

// replayLegacy indexes every well-formed line of one legacy segment
// into index (later lines win) and returns the byte length of the valid
// prefix.
func replayLegacy(f file, seg int, index map[string]ref) (int64, error) {
	r := bufio.NewReaderSize(f, replayBufBytes)
	var off int64
	for {
		raw, err := r.ReadBytes('\n')
		if err == io.EOF {
			// With bytes, a line cut short by a crash; without, a clean end.
			return off, nil
		}
		if err != nil {
			return 0, fmt.Errorf("store: read legacy segment %d @%d: %w", seg, off, err)
		}
		var l legacyLine
		if json.Unmarshal(raw, &l) != nil || l.K == "" {
			return off, nil
		}
		index[l.K] = ref{seg: int32(seg), off: off, ln: int32(len(raw))}
		off += int64(len(raw))
	}
}

// readLegacy reads and decodes the value of one legacy line.
func readLegacy(f file, rf ref) ([]byte, error) {
	buf := make([]byte, rf.ln)
	if _, err := f.ReadAt(buf, rf.off); err != nil {
		return nil, fmt.Errorf("store: read legacy segment %d @%d: %w", rf.seg, rf.off, err)
	}
	var l legacyLine
	if err := json.Unmarshal(buf, &l); err != nil {
		return nil, fmt.Errorf("store: decode legacy segment %d @%d: %w", rf.seg, rf.off, err)
	}
	v, err := base64.StdEncoding.DecodeString(l.V)
	if err != nil {
		return nil, fmt.Errorf("store: decode legacy segment %d @%d: %w", rf.seg, rf.off, err)
	}
	return v, nil
}
