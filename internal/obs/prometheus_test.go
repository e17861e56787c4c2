package obs

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLine matches one Prometheus text-format sample:
// name{label="value",...} value
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? ([+-]?Inf|NaN|[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)$`)

// promRegistry builds a registry holding one metric of every kind the
// package supports, with known values.
func promRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Counter("scan.domains.total").Add(42)
	r.Gauge("queue.depth").Set(7)
	r.GaugeFunc("cache.entries", func() int64 { return 3 })
	h := r.Histogram("dns.lookup.seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // bucket le=0.01
	h.Observe(0.05)  // bucket le=0.1
	h.Observe(0.5)   // bucket le=1
	h.Observe(5)     // overflow bucket
	p := r.Progress("scan")
	p.SetTotal(10)
	p.Start()
	p.Start()
	p.Done()
	return r
}

// parsePromText parses a full Prometheus text document, failing the
// test on any line that is neither a comment nor a valid sample.
// Returns samples keyed by name+labels and the set of TYPE
// declarations.
func parsePromText(t *testing.T, body string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = make(map[string]float64)
	types = make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			t.Fatalf("blank line in exposition output")
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "TYPE" {
				t.Fatalf("malformed comment line: %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(m[3], "+"), 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return samples, types
}

// TestPrometheusExportParses is the regression test for the /metrics
// format bug: every registered metric kind must appear in the
// Prometheus output, every line must parse, and histogram buckets must
// be cumulative.
func TestPrometheusExportParses(t *testing.T) {
	r := promRegistry(t)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	samples, types := parsePromText(t, sb.String())

	wantTypes := map[string]string{
		"uptime_seconds":     "gauge",
		"scan_domains_total": "counter",
		"queue_depth":        "gauge",
		"cache_entries":      "gauge",
		"dns_lookup_seconds": "histogram",
		// Progress tracker gauge family.
		"progress_scan_total":           "gauge",
		"progress_scan_done":            "gauge",
		"progress_scan_in_flight":       "gauge",
		"progress_scan_rate_per_second": "gauge",
	}
	for name, typ := range wantTypes {
		if got := types[name]; got != typ {
			t.Errorf("TYPE %s = %q, want %q", name, got, typ)
		}
	}

	wantValues := map[string]float64{
		"scan_domains_total":                     42,
		"queue_depth":                            7,
		"cache_entries":                          3,
		"dns_lookup_seconds_bucket{le=\"0.01\"}": 1,
		"dns_lookup_seconds_bucket{le=\"0.1\"}":  2,
		"dns_lookup_seconds_bucket{le=\"1\"}":    3,
		"dns_lookup_seconds_bucket{le=\"+Inf\"}": 4,
		"dns_lookup_seconds_count":               4,
		"progress_scan_total":                    10,
		"progress_scan_done":                     1,
		"progress_scan_in_flight":                1,
	}
	for key, want := range wantValues {
		got, ok := samples[key]
		if !ok {
			t.Errorf("sample %s missing", key)
			continue
		}
		if got != want {
			t.Errorf("sample %s = %v, want %v", key, got, want)
		}
	}
	wantSum := 0.005 + 0.05 + 0.5 + 5
	if got := samples["dns_lookup_seconds_sum"]; got != wantSum {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
	if _, ok := samples["uptime_seconds"]; !ok {
		t.Errorf("uptime_seconds sample missing")
	}
}

// TestPrometheusExportDeterministic locks the sorted-output guarantee.
func TestPrometheusExportDeterministic(t *testing.T) {
	r := promRegistry(t)
	s := r.Snapshot()
	var a, b strings.Builder
	if err := writePrometheus(&a, s); err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := writePrometheus(&b, s); err != nil {
		t.Fatalf("export: %v", err)
	}
	if a.String() != b.String() {
		t.Fatalf("same snapshot exported differently:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"scan.domains.total":         "scan_domains_total",
		"scan.mx.cert.name-mismatch": "scan_mx_cert_name_mismatch",
		"already_fine:ok":            "already_fine:ok",
		"9lives":                     "_9lives",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMetricsContentNegotiation is the regression test for the
// hardcoded-format bug: /metrics must pick the exporter (and the
// Content-Type) from the request.
func TestMetricsContentNegotiation(t *testing.T) {
	r := promRegistry(t)
	h := r.Handler()

	cases := []struct {
		name       string
		url        string
		accept     string
		wantCT     string
		wantPrefix string
	}{
		{"default is JSON", "/metrics", "", "application/json; charset=utf-8", "{"},
		{"curl wildcard stays JSON", "/metrics", "*/*", "application/json; charset=utf-8", "{"},
		{"accept text/plain", "/metrics", "text/plain", PrometheusContentType, "# TYPE"},
		{"prometheus scraper accept", "/metrics",
			"application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5,*/*;q=0.1",
			PrometheusContentType, "# TYPE"},
		{"format param wins over accept", "/metrics?format=prometheus", "application/json",
			PrometheusContentType, "# TYPE"},
		{"format json explicit", "/metrics?format=json", "text/plain",
			"application/json; charset=utf-8", "{"},
		{"unknown format falls back to accept", "/metrics?format=xml", "text/plain",
			PrometheusContentType, "# TYPE"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, tc.url, nil)
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if got := rec.Header().Get("Content-Type"); got != tc.wantCT {
				t.Errorf("Content-Type = %q, want %q", got, tc.wantCT)
			}
			if body := rec.Body.String(); !strings.HasPrefix(body, tc.wantPrefix) {
				t.Errorf("body starts %q, want prefix %q", body[:min(len(body), 40)], tc.wantPrefix)
			}
		})
	}
}

// TestPrometheusViaServer drives the real obs.Server end to end so the
// negotiated scrape path (listener included) is covered.
func TestPrometheusViaServer(t *testing.T) {
	r := promRegistry(t)
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	req, err := http.NewRequest(http.MethodGet, "http://"+srv.Addr()+"/metrics", nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != PrometheusContentType {
		t.Fatalf("Content-Type = %q, want %q", got, PrometheusContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	samples, _ := parsePromText(t, string(body))
	if samples["scan_domains_total"] != 42 {
		t.Fatalf("scraped scan_domains_total = %v, want 42", samples["scan_domains_total"])
	}
}
