package scansvc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// IngestTLSRPT validates one RFC 8460 aggregate report and stores it
// keyed by (policy domain, reporting window, report-id) — one copy per
// policy domain the report covers, so the per-domain join is a single
// prefix scan. Re-POSTing the same report overwrites its own keys
// (idempotent ingestion). Rejections carry errtax report_* codes.
func (s *Service) IngestTLSRPT(data []byte) (*tlsrpt.Report, error) {
	r, err := tlsrpt.IngestReport(data)
	if err != nil {
		s.Obs.Counter("tlsrpt.ingest.rejected").Inc()
		return nil, err
	}
	// Refuse before the first Put: stored for every domain or for none.
	for _, d := range r.Domains() {
		if strings.Contains(d, "/") {
			s.Obs.Counter("tlsrpt.ingest.rejected").Inc()
			return nil, fmt.Errorf("scansvc: policy domain %q cannot hold a slash", d)
		}
	}
	window := r.DateRange.WindowKey()
	// Store the canonical re-marshal, not the submitted bytes, so
	// stored reports always re-parse.
	canonical, err := r.Marshal()
	if err != nil {
		return nil, err
	}
	for _, d := range r.Domains() {
		if err := s.Store.Put(rptKey(d, window, r.ReportID), canonical); err != nil {
			return nil, err
		}
	}
	if err := s.Store.Sync(); err != nil {
		return nil, err
	}
	s.Obs.Counter("tlsrpt.ingest.accepted").Inc()
	if s.Events != nil {
		s.Events.Emit("tlsrpt.report.ingested", map[string]any{
			"report_id": r.ReportID, "window": window, "domains": r.Domains(),
		})
	}
	return r, nil
}

// TLSRPTSummary aggregates every stored report section for one policy
// domain — the operator-side evidence joined against scan verdicts.
type TLSRPTSummary struct {
	// Reports is the stored report count covering the domain.
	Reports int `json:"reports"`
	// Success/Failure total the sessions across all windows and policy
	// types.
	Success int64 `json:"success"`
	Failure int64 `json:"failure"`
	// ResultTypes counts failed sessions per RFC 8460 result-type.
	ResultTypes map[string]int64 `json:"result_types,omitempty"`
}

// TLSRPTFor folds the stored reports for one domain into a summary.
// ok is false when no report covers the domain.
func (s *Service) TLSRPTFor(domain string) (TLSRPTSummary, bool, error) {
	return s.tlsrptFor(domain, nil)
}

// tlsrptFor is TLSRPTFor's one prefix scan; a non-nil docs also
// receives the stored report documents, in (window, report-id) order.
func (s *Service) tlsrptFor(domain string, docs *[]json.RawMessage) (TLSRPTSummary, bool, error) {
	sum := TLSRPTSummary{}
	err := s.Store.Scan(rptDomainPrefix(domain), func(_ string, v []byte) error {
		if docs != nil {
			*docs = append(*docs, append(json.RawMessage(nil), v...))
		}
		var r tlsrpt.Report
		if err := json.Unmarshal(v, &r); err != nil {
			return fmt.Errorf("scansvc: corrupt stored report for %s: %w", domain, err)
		}
		sum.Reports++
		for _, p := range r.Policies {
			if p.Policy.PolicyDomain != domain {
				continue
			}
			sum.Success += p.Summary.TotalSuccessfulSessionCount
			sum.Failure += p.Summary.TotalFailureSessionCount
			for _, fd := range p.FailureDetails {
				if sum.ResultTypes == nil {
					sum.ResultTypes = make(map[string]int64)
				}
				sum.ResultTypes[string(fd.ResultType)] += fd.FailedSessionCount
			}
		}
		return nil
	})
	if err != nil {
		return TLSRPTSummary{}, false, err
	}
	return sum, sum.Reports > 0, nil
}

// WriteResults streams a job's per-domain results as JSONL through
// campaign.WriteBuffered. Plain (join=false) output re-emits each
// stored record's canonical bytes — byte-identical across crash-resumed
// and uninterrupted runs, the contract smoke-serve enforces. With
// join=true each line wraps the same stored bytes, verbatim, together
// with the domain's TLSRPT evidence:
//
//	{"scan":<record>,"tlsrpt":{...}}   (tlsrpt omitted when none)
//
// The line is written by hand, not marshalled: a stored record is
// already canonical compact JSON, so it needs no re-encoding, and its
// domain comes from its key, so it needs no decoding.
func (s *Service) WriteResults(w io.Writer, id string, join bool) error {
	if !join {
		return campaign.WriteSnapshot(w, s.Store, id, resultsWeek)
	}
	return campaign.WriteBuffered(w, func(bw *bufio.Writer) error {
		var line []byte // reused: each line is assembled here, then written once
		return campaign.ScanWeek(s.Store, id, resultsWeek, func(domain string, raw []byte) error {
			sum, ok, err := s.TLSRPTFor(domain)
			if err != nil {
				return err
			}
			line = append(append(line[:0], `{"scan":`...), raw...)
			if ok {
				rpt, err := json.Marshal(&sum)
				if err != nil {
					return err
				}
				line = append(append(line, `,"tlsrpt":`...), rpt...)
			}
			line = append(line, "}\n"...)
			_, err = bw.Write(line)
			return err
		})
	})
}
