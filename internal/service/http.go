package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// maxBodyBytes bounds a /v1/solve body (64 MiB: a ~1M-triplet COO system).
const maxBodyBytes = 64 << 20

// solveHTTPRequest is the POST /v1/solve body: a SolveRequest plus
// transport options.
type solveHTTPRequest struct {
	SolveRequest
	// Async returns 202 + the job ID immediately; poll /v1/jobs/{id} or
	// stream it with Accept: text/event-stream. The default waits for the
	// solve and returns the finished job — and cancels the solve if the
	// client disconnects first (nobody else knows the job ID yet).
	Async bool `json:"async,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/solve           submit a solve (async or waiting)
//	POST   /v1/plan            resolve a request's execution plan without solving
//	GET    /v1/jobs/{id}       job status/result; with Accept: text/event-stream
//	                           (or ?watch=1) streams per-case results as they
//	                           converge, ending with the finished job
//	GET    /v1/jobs/{id}/trace stage timeline + sampled convergence curve
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/stats           queue, cache, tiling and latency statistics
//	GET    /v1/healthz         readiness: 200 while serving, 503 once draining
//	GET    /metrics            Prometheus text exposition
//
// Every request is logged to the engine's structured logger with a
// generated request id, echoed back in the X-Request-Id header.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logRequests(mux)
}

// Health is the GET /v1/healthz payload: the few facts a load balancer or
// fleet router needs to decide whether to keep sending work here. The
// response status carries the verdict — 200 while serving, 503 once the
// node is draining — so checkers need not parse the body at all.
type Health struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Node is the engine's configured node identity ("" standalone).
	Node string `json:"node,omitempty"`
	// QueueDepth/QueueCap describe submission headroom right now.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Running is the number of jobs currently executing.
	Running int `json:"running"`
	// Draining reports that Close has been called: the node finishes what
	// it has but accepts nothing new.
	Draining      bool    `json:"draining"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	h := Health{
		Status:        "ok",
		Node:          s.NodeID(),
		QueueDepth:    st.QueueDepth,
		QueueCap:      st.QueueCap,
		Running:       st.Running,
		Draining:      s.Draining(),
		UptimeSeconds: st.UptimeSeconds,
	}
	code := http.StatusOK
	if h.Draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// nextRequestID numbers requests process-wide for log correlation.
var nextRequestID atomic.Int64

// logRequests wraps the API in request-scoped structured logging: each
// request gets an id (generated, or taken from an incoming X-Request-Id so
// callers can thread their own correlation ids), which is echoed in the
// response headers and attached to the access log line.
func (s *Service) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = fmt.Sprintf("r-%06d", nextRequestID.Add(1))
		}
		w.Header().Set("X-Request-Id", reqID)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.Logger().Info("http request",
			"request", reqID, "method", r.Method, "path", r.URL.Path,
			"status", status, "duration_seconds", time.Since(start).Seconds())
	})
}

// statusWriter captures the response status for the access log. It keeps
// the Flusher contract the SSE/ndjson stream handlers depend on.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// decodeBody reads exactly one JSON value into dst, rejecting oversized
// bodies and trailing garbage. A non-nil return has already written the
// error response.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: err.Error()})
			return err
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return err
	}
	// A body must be exactly one JSON value: a second Decode must report
	// EOF, otherwise trailing bytes ({"plate":...}garbage) were silently
	// ignored and the request is malformed.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: trailing data after JSON value"})
		return errors.New("trailing data")
	}
	return nil
}

// submitStatus maps a rejected solve or plan to its HTTP status: 503 for
// a full queue or a draining node (retryable elsewhere or later), 409 for
// a by-reference system this node has not cached (resend the triplets),
// 400 for everything else — a verdict on the request itself.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNotCached):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveHTTPRequest
	if decodeBody(w, r, &req) != nil {
		return
	}
	job, err := s.Submit(req.SolveRequest)
	if err != nil {
		writeJSON(w, submitStatus(err), errorResponse{Error: err.Error()})
		return
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, s.ViewOf(job))
		return
	}
	select {
	case <-job.Done():
		writeJSON(w, http.StatusOK, s.ViewOf(job))
	case <-r.Context().Done():
		// The client is gone and it is the only party that ever learned
		// this job's ID, so nobody can collect the result: propagate the
		// disconnect into the solve loop instead of leaking a running job.
		job.Cancel()
	}
}

func (s *Service) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if decodeBody(w, r, &req) != nil {
		return
	}
	info, err := s.PlanRequest(req)
	if err != nil {
		writeJSON(w, submitStatus(err), errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// wantsStream reports whether the job request asked for per-case streaming:
// SSE via the Accept header, or chunked JSON lines via ?watch=1.
func wantsStream(r *http.Request) (stream, sse bool) {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		return true, true
	}
	if r.URL.Query().Get("watch") == "1" {
		return true, false
	}
	return false, false
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if stream, sse := wantsStream(r); stream {
		job, ok := s.JobRef(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
			return
		}
		s.streamJob(w, r, job, sse)
		return
	}
	v, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.JobRef(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, s.ViewOf(job))
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleTrace serves a job's stage timeline and sampled convergence curve.
// It works on running jobs (open spans report provisional durations) and
// replays unchanged for finished ones, for as long as the job is retained
// in history.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ti, ok := s.Trace(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, ti)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}
