package scansvc

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"github.com/netsecurelab/mtasts/internal/errtax"
)

// Endpoint documents one API route. The table below is the single
// source of truth: Handler builds the mux from it, and the docscheck
// tests lock docs/SERVICE.md's endpoint list to it both ways.
type Endpoint struct {
	// Method and Pattern are the http.ServeMux registration
	// ("POST", "/api/v1/jobs/{id}/cancel").
	Method  string
	Pattern string
	// Doc is the one-line summary mirrored in docs/SERVICE.md.
	Doc string
}

// Endpoints is the service's HTTP API surface.
var Endpoints = []Endpoint{
	{"POST", "/api/v1/jobs", "submit a scan job ({tenant, domains}); 202 with the stored job"},
	{"GET", "/api/v1/jobs", "list every job in submission order"},
	{"GET", "/api/v1/jobs/{id}", "one job's stored state"},
	{"POST", "/api/v1/jobs/{id}/cancel", "cancel a pending or running job"},
	{"GET", "/api/v1/jobs/{id}/results", "stream per-domain results as JSONL (?join=tlsrpt wraps each line with the domain's TLSRPT evidence)"},
	{"POST", "/api/v1/tlsrpt", "ingest an RFC 8460 aggregate report"},
	{"GET", "/api/v1/tlsrpt/{domain}", "stored reports and the aggregated summary for one policy domain"},
}

// maxBodyBytes bounds request bodies (domain lists, TLSRPT reports).
const maxBodyBytes = 8 << 20

// Handler builds the service's API mux from the Endpoints table.
// Observability endpoints (/metrics etc.) are not mounted here — the
// command composes this mux with obs.Registry.NewServeMux.
func (s *Service) Handler() http.Handler {
	handlers := map[string]http.HandlerFunc{
		"POST /api/v1/jobs":             s.handleSubmit,
		"GET /api/v1/jobs":              s.handleList,
		"GET /api/v1/jobs/{id}":         s.handleGet,
		"POST /api/v1/jobs/{id}/cancel": s.handleCancel,
		"GET /api/v1/jobs/{id}/results": s.handleResults,
		"POST /api/v1/tlsrpt":           s.handleTLSRPTIngest,
		"GET /api/v1/tlsrpt/{domain}":   s.handleTLSRPTGet,
	}
	mux := http.NewServeMux()
	for _, e := range Endpoints {
		key := e.Method + " " + e.Pattern
		h, ok := handlers[key]
		if !ok {
			// A table row without a handler is a programming error the
			// tests catch; panic beats silently serving 404.
			panic("scansvc: endpoint without handler: " + key)
		}
		mux.HandleFunc(key, h)
	}
	return mux
}

// apiError is the JSON error envelope. Typed errtax rejections carry
// their code so clients can branch without parsing messages.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lint:ignore errdrop the status line is already on the wire; a torn client connection has no one left to tell
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	e := apiError{Error: err.Error()}
	if code, ok := errtax.CodeOf(err); ok {
		e.Code = string(code)
	}
	writeJSON(w, status, e)
}

// submitRequest is the POST /api/v1/jobs body.
type submitRequest struct {
	Tenant  string   `json:"tenant"`
	Domains []string `json:"domains"`
}

func (s *Service) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var body submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.Submit(body.Tenant, body.Domains)
	switch {
	case errors.Is(err, ErrRateLimited):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, j)
	}
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs, err := s.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if jobs == nil {
		jobs = []Job{}
	}
	writeJSON(w, http.StatusOK, jobs)
}

func (s *Service) handleGet(w http.ResponseWriter, req *http.Request) {
	j, ok, err := s.Get(req.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("scansvc: no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Service) handleCancel(w http.ResponseWriter, req *http.Request) {
	j, err := s.Cancel(req.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Service) handleResults(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	// Partial results are legal to stream (a running job has its
	// checkpointed shards); clients gate on state via the job endpoint.
	_, ok, err := s.Get(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("scansvc: no such job"))
		return
	}
	join := req.URL.Query().Get("join") == "tlsrpt"
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	sw := &sentWriter{w: w}
	if err := s.WriteResults(sw, id, join); err != nil {
		s.Obs.Counter("scansvc.results.errors").Inc()
		if !sw.sent {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		// A 200 is underway: cut the connection instead of ending the
		// chunked body cleanly, so the client cannot take a truncated
		// stream for a whole one.
		panic(http.ErrAbortHandler)
	}
}

// sentWriter records whether anything was written through it.
type sentWriter struct {
	w    io.Writer
	sent bool
}

func (s *sentWriter) Write(p []byte) (int, error) {
	s.sent = s.sent || len(p) > 0
	return s.w.Write(p)
}

func (s *Service) handleTLSRPTIngest(w http.ResponseWriter, req *http.Request) {
	body, err := readAll(w, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	r, err := s.IngestTLSRPT(body)
	if err != nil {
		status := http.StatusBadRequest
		if _, typed := errtax.CodeOf(err); !typed {
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"report_id": r.ReportID,
		"window":    r.DateRange.WindowKey(),
		"domains":   r.Domains(),
	})
}

func (s *Service) handleTLSRPTGet(w http.ResponseWriter, req *http.Request) {
	domain := req.PathValue("domain")
	var reports []json.RawMessage
	sum, ok, err := s.tlsrptFor(domain, &reports)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("scansvc: no reports for domain"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"domain":  domain,
		"summary": sum,
		"reports": reports,
	})
}

func readAll(w http.ResponseWriter, req *http.Request) ([]byte, error) {
	defer req.Body.Close()
	return io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
}
