package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Snapshot is a point-in-time copy of every metric in a registry — the
// /metrics document. Maps are keyed by metric name; GaugeFuncs are
// evaluated at snapshot time and merged into Gauges.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
	Progress      map[string]ProgressSnapshot  `json:"progress"`
}

// Snapshot copies the registry's current state. A nil registry yields an
// empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
		Progress:   make(map[string]ProgressSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFuncs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gaugeFuncs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	progress := make(map[string]*Progress, len(r.progress))
	for k, v := range r.progress {
		progress[k] = v
	}
	start := r.start
	r.mu.RUnlock()

	s.UptimeSeconds = time.Since(start).Seconds()
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	// GaugeFuncs run outside the registry lock: they may call back into
	// arbitrary instrumented code.
	for k, fn := range gaugeFuncs {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Snapshot()
	}
	for k, p := range progress {
		s.Progress[k] = p.Snapshot()
	}
	return s
}

// SummaryRows flattens the snapshot into sorted (metric, value) string
// pairs for end-of-run summary tables: counters and gauges verbatim,
// histograms as count/mean/p50/p95, progress as done/total with the mean
// rate. Zero-count histograms and empty progress trackers are elided.
func (s Snapshot) SummaryRows() [][2]string {
	var rows [][2]string
	for _, name := range sortedNames(s.Counters) {
		rows = append(rows, [2]string{name, fmt.Sprintf("%d", s.Counters[name])})
	}
	for _, name := range sortedNames(s.Gauges) {
		rows = append(rows, [2]string{name, fmt.Sprintf("%d", s.Gauges[name])})
	}
	for _, name := range sortedNames(s.Histograms) {
		h := s.Histograms[name]
		if h.Count == 0 {
			continue
		}
		rows = append(rows, [2]string{name, fmt.Sprintf(
			"n=%d mean=%s p50=%s p95=%s",
			h.Count, fmtSeconds(h.Mean()), fmtSeconds(h.Quantile(0.5)), fmtSeconds(h.Quantile(0.95)))})
	}
	for _, name := range sortedNames(s.Progress) {
		p := s.Progress[name]
		if p.Total == 0 && p.Done == 0 {
			continue
		}
		rows = append(rows, [2]string{"progress." + name, fmt.Sprintf(
			"%d/%d done, %.1f/s", p.Done, p.Total, p.RatePerSecond)})
	}
	return rows
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fmtSeconds(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// Handler serves the snapshot — the /metrics endpoint — as JSON or in
// the Prometheus text format, chosen per request by wantsPrometheus.
// Content-Type always matches the format of the body.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		contentType, write := jsonContentType, writeJSON
		if wantsPrometheus(req.URL.Query().Get("format"), req.Header.Get("Accept")) {
			contentType, write = PrometheusContentType, writePrometheus
		}
		w.Header().Set("Content-Type", contentType)
		if err := write(w, r.Snapshot()); err != nil {
			// The response is underway, so the error cannot reach the
			// client; count it where the next scrape will see it.
			r.Counter("obs.export.errors").Inc()
		}
	})
}

const jsonContentType = "application/json; charset=utf-8"

// wantsPrometheus picks /metrics' format for a request: ?format=json or
// ?format=prometheus wins; otherwise the first Accept media range one of
// the two serves decides (Prometheus scrapers ask for text/plain or
// OpenMetrics, of which this text format is a compatible subset for
// counters and gauges); otherwise JSON, the historical document that
// curl and the examples in docs/OBSERVABILITY.md get.
func wantsPrometheus(format, accept string) bool {
	switch format {
	case "json":
		return false
	case "prometheus":
		return true
	}
	for _, part := range strings.Split(accept, ",") {
		mr, _, _ := strings.Cut(part, ";")
		switch strings.ToLower(strings.TrimSpace(mr)) {
		case "application/json", "application/*", "*/*":
			return false
		case "text/plain", "text/*", "application/openmetrics-text":
			return true
		}
	}
	return false
}

// writeJSON renders the snapshot as the indented JSON document that has
// always been the /metrics default.
func writeJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ProgressHandler serves only the progress trackers — the cheap
// /debug/scanprogress endpoint a watcher can poll at high frequency.
func (r *Registry) ProgressHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		out := make(map[string]ProgressSnapshot)
		if r != nil {
			r.mu.RLock()
			progress := make(map[string]*Progress, len(r.progress))
			for k, v := range r.progress {
				progress[k] = v
			}
			r.mu.RUnlock()
			for k, p := range progress {
				out[k] = p.Snapshot()
			}
		}
		w.Header().Set("Content-Type", jsonContentType)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			r.Counter("obs.export.errors").Inc()
		}
	})
}

// NewServeMux mounts the observability endpoints:
//
//	/metrics             full snapshot (counters, gauges, histograms, progress)
//	/debug/scanprogress  progress trackers only
//	/debug/vars          the stdlib expvar document
func (r *Registry) NewServeMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/scanprogress", r.ProgressHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// Server is a running metrics HTTP listener.
type Server struct {
	ln       net.Listener
	srv      *http.Server
	done     chan struct{}
	serveErr error // set before done closes
}

// Serve starts an HTTP server for the registry's endpoints on addr
// ("host:port"; port 0 picks a free port). It returns once the listener
// is bound; requests are served in the background until Close.
func (r *Registry) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: r.NewServeMux()},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.serveErr = err
		}
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, waits for the serve loop to exit, and
// reports any error the loop died with.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	if err == nil {
		err = s.serveErr
	}
	return err
}
