package scansvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/store"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// TestRefusedReportStoresNothing: a report whose second policy domain
// cannot be keyed is refused whole — no copy for its first domain is
// left behind to surface in joined results or turn durable at the next
// Sync.
func TestRefusedReportStoresNothing(t *testing.T) {
	st := store.NewMem()
	svc := newTestService(t, st, nil)
	r := tlsrpt.NewReport("Test Org", "tls@test.example", "multi",
		time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC), time.Date(2026, 8, 2, 0, 0, 0, 0, time.UTC))
	r.AddSuccess(tlsrpt.PolicyTypeSTS, "a.example", 7)
	r.AddSuccess(tlsrpt.PolicyTypeSTS, "b/c", 9)
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestTLSRPT(data); err == nil {
		t.Fatal("report covering policy domain \"b/c\" was accepted")
	}
	if n, err := store.Len(st, rptKeyPrefix); err != nil || n != 0 {
		t.Fatalf("refused report left %d stored copies (err %v), want 0", n, err)
	}
	if sum, ok, err := svc.TLSRPTFor("a.example"); err != nil || ok {
		t.Fatalf("TLSRPTFor(a.example) after a refused report = %+v, ok=%v, err=%v", sum, ok, err)
	}
}

// TestJoinedResultsAmongManyJobs reads one job's joined stream out of a
// disk store that also holds 20 other finished jobs and reports for
// domains inside and outside the job — the shape in which the per-line
// TLSRPT seek runs in service — and checks it line by line against the
// plain stream.
func TestJoinedResultsAmongManyJobs(t *testing.T) {
	st, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := newTestService(t, st, nil)
	h := svc.Handler()
	_, names := worldScan()
	for i := 0; i < 20; i++ {
		j, err := svc.Submit("acme", names[i:i+6])
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, svc, j.ID, StateDone)
	}

	// Reports: two for names[3], one for names[10], one
	// report covering names[20] and a domain no job scanned, and one for
	// a domain that merely extends names[5] (prefix neighbours).
	post := func(body string) {
		t.Helper()
		apiCall(t, h, "POST", "/api/v1/tlsrpt", body, http.StatusAccepted, nil)
	}
	post(testReportJSON(t, "r1", names[3], 10, 1))
	post(testReportJSON(t, "r2", names[3], 20, 2))
	post(testReportJSON(t, "r3", names[10], 5, 0))
	post(testReportJSON(t, "r4", names[5]+".sub.example", 1, 0))
	multi := tlsrpt.NewReport("Test Org", "tls@test.example", "r5",
		time.Date(2026, 8, 3, 0, 0, 0, 0, time.UTC), time.Date(2026, 8, 4, 0, 0, 0, 0, time.UTC))
	multi.AddSuccess(tlsrpt.PolicyTypeSTS, names[20], 40)
	multi.AddSuccess(tlsrpt.PolicyTypeSTS, "unscanned.example", 50)
	data, err := multi.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	post(string(data))
	want := map[string]TLSRPTSummary{
		names[3]:  {Reports: 2, Success: 30, Failure: 3, ResultTypes: map[string]int64{string(tlsrpt.ResultCertificateExpired): 3}},
		names[10]: {Reports: 1, Success: 5},
		names[20]: {Reports: 1, Success: 40},
	}

	j, err := svc.Submit("acme", names[:24])
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, j.ID, StateDone)
	var plain, joined bytes.Buffer
	if err := svc.WriteResults(&plain, j.ID, false); err != nil {
		t.Fatal(err)
	}
	if err := svc.WriteResults(&joined, j.ID, true); err != nil {
		t.Fatal(err)
	}
	plainLines := bytes.Split(bytes.TrimSuffix(plain.Bytes(), []byte{'\n'}), []byte{'\n'})
	joinedLines := bytes.Split(bytes.TrimSuffix(joined.Bytes(), []byte{'\n'}), []byte{'\n'})
	if len(plainLines) != 24 || len(joinedLines) != 24 {
		t.Fatalf("plain stream %d lines, joined stream %d lines, want 24 each", len(plainLines), len(joinedLines))
	}
	for i, raw := range joinedLines {
		var line struct {
			Scan   json.RawMessage `json:"scan"`
			TLSRPT *TLSRPTSummary  `json:"tlsrpt"`
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("joined line %d: %v\n%s", i, err, raw)
		}
		if !bytes.Equal(line.Scan, plainLines[i]) {
			t.Fatalf("joined line %d: scan bytes differ from the plain stream:\n  %s\n  %s", i, line.Scan, plainLines[i])
		}
		var scanned struct {
			Domain string `json:"domain"`
		}
		if err := json.Unmarshal(line.Scan, &scanned); err != nil {
			t.Fatal(err)
		}
		sum, reported := want[scanned.Domain]
		if reported != (line.TLSRPT != nil) {
			t.Fatalf("joined line %d (%s): tlsrpt present=%v, want %v", i, scanned.Domain, line.TLSRPT != nil, reported)
		}
		if reported && fmt.Sprint(*line.TLSRPT) != fmt.Sprint(sum) {
			t.Fatalf("joined line %d (%s): tlsrpt = %+v, want %+v", i, scanned.Domain, *line.TLSRPT, sum)
		}
		delete(want, scanned.Domain)
	}
	if len(want) != 0 {
		t.Fatalf("reported domains missing from the joined stream: %v", want)
	}

	// The per-domain endpoint returns summary and documents from its one
	// scan, documents in (window, report-id) order.
	req := httptest.NewRequest("GET", "/api/v1/tlsrpt/"+names[3], nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	wantBody, err := json.MarshalIndent(map[string]any{
		"domain":  names[3],
		"summary": TLSRPTSummary{Reports: 2, Success: 30, Failure: 3, ResultTypes: map[string]int64{string(tlsrpt.ResultCertificateExpired): 3}},
		"reports": []json.RawMessage{
			json.RawMessage(testReportJSON(t, "r1", names[3], 10, 1)),
			json.RawMessage(testReportJSON(t, "r2", names[3], 20, 2)),
		},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !bytes.Equal(bytes.TrimSpace(rec.Body.Bytes()), wantBody) {
		t.Fatalf("GET tlsrpt/%s = %d\n got: %s\nwant: %s", names[3], rec.Code, rec.Body.Bytes(), wantBody)
	}
}

// TestJoinedStreamMatchesEnvelope pins the hand-written joined line to
// what marshalling the envelope it replaced produced, byte for byte,
// for a domain with TLSRPT evidence, one without, and one whose name
// JSON escapes. It also pins the week's Aggregate, which decodes the
// records ScanWeek now hands over raw.
func TestJoinedStreamMatchesEnvelope(t *testing.T) {
	st := store.NewMem()
	svc := newTestService(t, st, nil)
	scan, names := worldScan()
	var broken string // the first misconfigured domain, so Aggregate counts codes
	for _, d := range names {
		if r := scan.ScanDomain(context.Background(), d); r.Misconfigured() {
			broken = d
			break
		}
	}
	odd := "a&b<c>.example"
	for _, r := range []struct {
		id, domain string
		ok, failed int64
	}{{"r1", names[0], 10, 1}, {"r2", names[0], 5, 0}, {"r3", odd, 3, 2}} {
		if _, err := svc.IngestTLSRPT([]byte(testReportJSON(t, r.id, r.domain, r.ok, r.failed))); err != nil {
			t.Fatal(err)
		}
	}
	j, err := svc.Submit("acme", []string{names[0], names[1], broken, odd})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, j.ID, StateDone)

	var plain, joined bytes.Buffer
	if err := svc.WriteResults(&plain, j.ID, false); err != nil {
		t.Fatal(err)
	}
	if err := svc.WriteResults(&joined, j.ID, true); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	withRPT := 0
	for _, raw := range bytes.SplitAfter(plain.Bytes(), []byte{'\n'}) {
		if len(raw) == 0 {
			continue
		}
		raw = bytes.TrimSuffix(raw, []byte{'\n'})
		var rec struct {
			Domain string `json:"domain"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		line := struct {
			Scan   json.RawMessage `json:"scan"`
			TLSRPT *TLSRPTSummary  `json:"tlsrpt,omitempty"`
		}{Scan: raw}
		sum, ok, err := svc.TLSRPTFor(rec.Domain)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			line.TLSRPT = &sum
			withRPT++
		}
		v, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(v)
		want.WriteByte('\n')
	}
	if withRPT != 2 || !bytes.Contains(plain.Bytes(), []byte(`"a\u0026b\u003cc\u003e.example"`)) {
		t.Fatalf("want two domains with evidence and the escaped one in the stream; got %d with evidence:\n%s", withRPT, plain.Bytes())
	}
	if !bytes.Equal(joined.Bytes(), want.Bytes()) {
		t.Fatalf("joined stream differs from the marshalled envelope:\n got: %s\nwant: %s", joined.Bytes(), want.Bytes())
	}

	sum, err := campaign.Aggregate(st, j.ID, resultsWeek)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := campaign.WeekSummary{Week: resultsWeek, Domains: 4, Present: 3, Valid: 3, PolicyOK: 2, Enforce: 1,
		Misconfigured: 1, ByCategory: map[string]int{"policy": 1}, ByCode: map[string]int{"tls_handshake": 1}}
	if fmt.Sprintf("%+v", sum) != fmt.Sprintf("%+v", wantSum) {
		t.Fatalf("Aggregate = %+v, want %+v", sum, wantSum)
	}
}
