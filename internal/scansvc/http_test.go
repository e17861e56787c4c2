package scansvc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/store"
	"github.com/netsecurelab/mtasts/internal/tlsrpt"
)

// apiCall drives one request against the service handler and decodes a
// JSON response into out (skipped when out is nil).
func apiCall(t *testing.T, h http.Handler, method, path, body string, wantStatus int, out any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, path, rec.Code, wantStatus, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding response: %v\n%s", method, path, err, rec.Body.String())
		}
	}
}

// testReportJSON renders a report attributing sessions to domain.
func testReportJSON(t *testing.T, id, domain string, success, failure int64) string {
	t.Helper()
	r := tlsrpt.NewReport("Test Org", "tls@test.example", id,
		time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 8, 2, 0, 0, 0, 0, time.UTC))
	r.AddSuccess(tlsrpt.PolicyTypeSTS, domain, success)
	if failure > 0 {
		r.AddFailure(tlsrpt.PolicyTypeSTS, domain, tlsrpt.ResultCertificateExpired, "mx."+domain, failure)
	}
	data, err := r.Marshal()
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(data)
}

func TestHTTPJobLifecycle(t *testing.T) {
	svc := newTestService(t, store.NewMem(), nil)
	h := svc.Handler()
	_, names := worldScan()

	// Submit.
	body, err := json.Marshal(submitRequest{Tenant: "acme", Domains: names[:24]})
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	apiCall(t, h, "POST", "/api/v1/jobs", string(body), http.StatusAccepted, &j)
	if j.ID == "" || j.Tenant != "acme" || j.Domains != 24 {
		t.Fatalf("submitted job = %+v", j)
	}

	// Poll the job endpoint to done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got Job
		apiCall(t, h, "GET", "/api/v1/jobs/"+j.ID, "", http.StatusOK, &got)
		if got.State == StateDone {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("job ended %s: %s", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// List.
	var jobs []Job
	apiCall(t, h, "GET", "/api/v1/jobs", "", http.StatusOK, &jobs)
	if len(jobs) != 1 || jobs[0].ID != j.ID {
		t.Fatalf("list = %+v", jobs)
	}

	// Ingest a TLSRPT report for one scanned domain, then join.
	target := names[0]
	apiCall(t, h, "POST", "/api/v1/tlsrpt",
		testReportJSON(t, "r1", target, 100, 4), http.StatusAccepted, nil)

	req := httptest.NewRequest("GET", "/api/v1/jobs/"+j.ID+"/results?join=tlsrpt", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("joined results = %d: %s", rec.Code, rec.Body.String())
	}
	var joined, withRPT int
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Scan   json.RawMessage `json:"scan"`
			TLSRPT *TLSRPTSummary  `json:"tlsrpt"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("joined line does not parse: %v\n%s", err, sc.Text())
		}
		if len(line.Scan) == 0 {
			t.Fatalf("joined line without scan record: %s", sc.Text())
		}
		joined++
		if line.TLSRPT != nil {
			withRPT++
			if line.TLSRPT.Success != 100 || line.TLSRPT.Failure != 4 {
				t.Fatalf("joined TLSRPT = %+v", line.TLSRPT)
			}
		}
	}
	if joined != 24 {
		t.Fatalf("joined stream holds %d lines, want 24", joined)
	}
	if withRPT != 1 {
		t.Fatalf("%d joined lines carry TLSRPT evidence, want exactly 1 (%s)", withRPT, target)
	}

	// Plain results must not carry the join wrapper.
	req = httptest.NewRequest("GET", "/api/v1/jobs/"+j.ID+"/results", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if bytes.Contains(rec.Body.Bytes(), []byte(`"scan"`)) {
		t.Fatal("plain results are join-wrapped")
	}

	// TLSRPT per-domain endpoint.
	var rpt struct {
		Domain  string            `json:"domain"`
		Summary TLSRPTSummary     `json:"summary"`
		Reports []json.RawMessage `json:"reports"`
	}
	apiCall(t, h, "GET", "/api/v1/tlsrpt/"+target, "", http.StatusOK, &rpt)
	if rpt.Summary.Reports != 1 || rpt.Summary.Success != 100 || len(rpt.Reports) != 1 {
		t.Fatalf("tlsrpt endpoint = %+v", rpt)
	}
}

// TestResultsStreamFailsVisibly damages one stored result and streams
// the job's results, plain and joined, over a real connection. A
// failure before any byte is sent answers 500; one after the stream has
// begun must cut the connection, so the client's read fails rather
// than end on a clean, truncated 200. Either way the failure is
// counted once.
func TestResultsStreamFailsVisibly(t *testing.T) {
	for _, c := range []struct {
		name string
		join bool
		last bool // damage the last record, after bytes have gone out, not the first
	}{
		{"plain/first", false, false},
		{"plain/last", false, true},
		{"joined/first", true, false},
		{"joined/last", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			disk, err := store.OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { disk.Close() })
			reg := obs.NewRegistry()
			svc := newTestService(t, disk, func(s *Service) { s.Obs = reg })
			_, names := worldScan()
			j, err := svc.Submit("acme", names[:200])
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, svc, j.ID, StateDone)
			if _, err := svc.IngestTLSRPT([]byte(testReportJSON(t, "r1", names[0], 10, 1))); err != nil {
				t.Fatal(err)
			}
			if err := disk.Sync(); err != nil {
				t.Fatal(err)
			}

			// Flip the last value byte of the first or last result.
			var target []byte
			if err := campaign.ScanWeek(disk, j.ID, resultsWeek, func(domain string, raw []byte) error {
				if target == nil || c.last {
					target = append(append(target[:0], domain...), raw...)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
			if err != nil {
				t.Fatal(err)
			}
			flipped := false
			for _, seg := range segs {
				b, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if i := bytes.Index(b, target); i >= 0 {
					b[i+len(target)-1] ^= 0x20
					if err := os.WriteFile(seg, b, 0o644); err != nil {
						t.Fatal(err)
					}
					flipped = true
				}
			}
			if !flipped {
				t.Fatal("the damaged result's bytes are not in any segment")
			}

			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()
			url := srv.URL + "/api/v1/jobs/" + j.ID + "/results"
			if c.join {
				url += "?join=tlsrpt"
			}
			resp, err := http.Get(url)
			status := 0
			if err == nil {
				status = resp.StatusCode
				_, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			if c.last && err == nil {
				t.Errorf("the client read a stream cut short by a damaged record without an error (status %d)", status)
			}
			if !c.last && (err != nil || status != http.StatusInternalServerError) {
				t.Errorf("GET results over a damaged first record = %d, %v; want a 500", status, err)
			}
			if got := reg.Counter("scansvc.results.errors").Value(); got != 1 {
				t.Errorf("scansvc.results.errors = %d, want 1", got)
			}
		})
	}
}

func TestHTTPErrors(t *testing.T) {
	svc := newTestService(t, store.NewMem(), func(sv *Service) {
		sv.Tenants = NewTenantLimiter(1, 4)
	})
	h := svc.Handler()

	apiCall(t, h, "GET", "/api/v1/jobs/j999999", "", http.StatusNotFound, nil)
	apiCall(t, h, "POST", "/api/v1/jobs", `{"bogus": true}`, http.StatusBadRequest, nil)
	apiCall(t, h, "POST", "/api/v1/jobs", `{"domains": []}`, http.StatusBadRequest, nil)

	// Rate limit → 429.
	apiCall(t, h, "POST", "/api/v1/jobs", `{"tenant":"t","domains":["a.example","b.example"]}`,
		http.StatusAccepted, nil)
	var e apiError
	apiCall(t, h, "POST", "/api/v1/jobs", `{"tenant":"t","domains":["c.example","d.example","e.example"]}`,
		http.StatusTooManyRequests, &e)
	if e.Error == "" {
		t.Fatal("429 without error body")
	}

	// Malformed TLSRPT → 400 with the typed code on the wire.
	apiCall(t, h, "POST", "/api/v1/tlsrpt", `{"report-id":""}`, http.StatusBadRequest, &e)
	if e.Code != string(errtax.CodeReportMissingID) {
		t.Fatalf("tlsrpt rejection code = %q, want %q", e.Code, errtax.CodeReportMissingID)
	}
	apiCall(t, h, "GET", "/api/v1/tlsrpt/nothing.example", "", http.StatusNotFound, nil)
}

// TestEndpointsTableMatchesMux locks the Endpoints table to the mux in
// the code direction: every row must resolve to its own handler (the
// docs direction lives in internal/docscheck).
func TestEndpointsTableMatchesMux(t *testing.T) {
	svc := newTestService(t, store.NewMem(), nil)
	h := svc.Handler()
	for _, e := range Endpoints {
		path := e.Pattern
		path = strings.ReplaceAll(path, "{id}", "j000001")
		path = strings.ReplaceAll(path, "{domain}", "a.example")
		req := httptest.NewRequest(e.Method, path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusNotFound && !strings.Contains(rec.Body.String(), "scansvc:") {
			t.Errorf("%s %s: mux does not route (plain 404)", e.Method, e.Pattern)
		}
		if rec.Code == http.StatusMethodNotAllowed {
			t.Errorf("%s %s: method not allowed", e.Method, e.Pattern)
		}
	}
	if len(Endpoints) != 7 {
		t.Fatalf("Endpoints table has %d rows; update docs/SERVICE.md and this count together", len(Endpoints))
	}
	for i, e := range Endpoints {
		if e.Doc == "" {
			t.Errorf("endpoint %d (%s %s) has no doc line", i, e.Method, e.Pattern)
		}
	}
}
