package campaign

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"github.com/netsecurelab/mtasts/internal/store"
)

// WeekSummary aggregates one stored week — the row a trend table
// renders. It is recomputed from stored records, never accumulated
// during the scan, so resumed and uninterrupted runs summarize
// identically.
type WeekSummary struct {
	Week    int
	Domains int
	// Deployment funnel.
	Present  int
	Valid    int
	PolicyOK int
	// Policy modes among PolicyOK domains.
	Enforce int
	Testing int
	// Health.
	Misconfigured   int
	DeliveryFailure int
	Canceled        int
	// ByCategory counts Figure 4 category keys; ByCode errtax codes.
	ByCategory map[string]int
	ByCode     map[string]int
}

// ScanWeek visits one week's stored records in ascending domain order,
// handing the callback each record's domain, cut from its store key,
// and its raw canonical encoding — for byte-exact re-emission
// (snapshots, the service's result streams) and joins by domain,
// without decoding the record. Callers that inspect the record decode
// raw with DecodeRecord. raw is the store's Scan value: valid only
// until fn returns.
func ScanWeek(s store.Store, id string, week int, fn func(domain string, raw []byte) error) error {
	prefix := weekPrefix(id, week)
	return s.Scan(prefix, func(k string, v []byte) error {
		return fn(k[len(prefix):], v)
	})
}

// Aggregate scans one week's records and folds them into a summary.
func Aggregate(s store.Store, id string, week int) (WeekSummary, error) {
	sum := WeekSummary{
		Week:       week,
		ByCategory: make(map[string]int),
		ByCode:     make(map[string]int),
	}
	err := ScanWeek(s, id, week, func(_ string, raw []byte) error {
		rec, err := DecodeRecord(raw)
		if err != nil {
			return err
		}
		sum.Domains++
		if rec.Present {
			sum.Present++
		}
		if rec.Valid {
			sum.Valid++
		}
		if rec.PolicyOK {
			sum.PolicyOK++
			switch rec.Mode {
			case "enforce":
				sum.Enforce++
			case "testing":
				sum.Testing++
			}
		}
		if rec.Misconfigured() {
			sum.Misconfigured++
		}
		if rec.DeliveryFailure {
			sum.DeliveryFailure++
		}
		if rec.Canceled {
			sum.Canceled++
		}
		for _, c := range rec.Categories {
			sum.ByCategory[c]++
		}
		for _, c := range rec.Codes {
			sum.ByCode[c]++
		}
		return nil
	})
	return sum, err
}

// WriteSnapshot exports one week as canonical JSONL: one record value
// per line, in ascending domain order, through WriteBuffered. Because
// record encoding is canonical and Scan order is specified, two stores
// holding the same verdicts export byte-identical snapshots — the
// crash-resume determinism contract (resume_test.go).
func WriteSnapshot(w io.Writer, s store.Store, id string, week int) error {
	return WriteBuffered(w, func(bw *bufio.Writer) error {
		return s.Scan(weekPrefix(id, week), func(_ string, v []byte) error {
			if _, err := bw.Write(v); err != nil {
				return err
			}
			return bw.WriteByte('\n')
		})
	})
}

// streamBufBytes sizes the writer a results stream goes out through,
// so w sees one write per ~100 records rather than two per record.
const streamBufBytes = 16 << 10

// streamBufs pools those writers: the buffers in use are bounded by the
// streams running, not by the streams made.
var streamBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, streamBufBytes) }}

// WriteBuffered runs write against a pooled 16 KiB buffered writer over
// w and flushes it once, when write returns — after an error too, so the
// output stops where write stopped, as it would unbuffered.
func WriteBuffered(w io.Writer, write func(bw *bufio.Writer) error) error {
	bw := streamBufs.Get().(*bufio.Writer)
	bw.Reset(w)
	err := write(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	bw.Reset(nil)
	streamBufs.Put(bw)
	return err
}

// Status describes a campaign's stored state for the CLI.
type Status struct {
	Meta Meta
	// Weeks maps week → completed shard count (including weeks that are
	// only partially scanned and not yet in Meta.WeeksDone).
	Weeks map[int]int
	// Records is the total stored domain-record count.
	Records int
	// StoreBytes is the backing store's size when it reports one.
	StoreBytes int64
}

// ReadStatus inspects a campaign's stored state.
func ReadStatus(s store.Store, id string) (Status, error) {
	if err := validateID(id); err != nil {
		return Status{}, err
	}
	st := Status{Weeks: make(map[int]int)}
	meta, _, err := LoadMeta(s, id)
	if err != nil {
		return Status{}, err
	}
	st.Meta = meta
	st.Meta.ID = id
	err = s.Scan(allCheckpointsPrefix(id), func(k string, _ []byte) error {
		rest := strings.TrimPrefix(k, allCheckpointsPrefix(id))
		wk, _, ok := strings.Cut(rest, "/")
		if !ok {
			return fmt.Errorf("campaign: malformed checkpoint key %q", k)
		}
		w, err := strconv.Atoi(wk)
		if err != nil {
			return fmt.Errorf("campaign: malformed checkpoint key %q", k)
		}
		st.Weeks[w]++
		return nil
	})
	if err != nil {
		return Status{}, err
	}
	for w := range st.Weeks {
		n, err := store.Len(s, weekPrefix(id, w))
		if err != nil {
			return Status{}, err
		}
		st.Records += n
	}
	if sz, ok := s.(store.Sizer); ok {
		st.StoreBytes = sz.SizeBytes()
	}
	return st, nil
}
