package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/engine"
)

// maxBodyBytes mirrors the node-side request cap.
const maxBodyBytes = 64 << 20

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the fleet's HTTP API — the same /v1 surface a single
// solverd serves, so the Go SDK (and repro.Solver conformance) work
// unchanged against a router:
//
//	POST   /v1/solve           routed by the request's problem cache key
//	POST   /v1/plan            routed by the same key (plans read the cache)
//	GET    /v1/jobs/{id}       routed by the job-id node prefix; SSE and
//	                           ?watch=1 streams proxy with flush-through
//	GET    /v1/jobs/{id}/trace routed by the job-id node prefix
//	DELETE /v1/jobs/{id}       routed by the job-id node prefix
//	GET    /v1/stats           aggregated across the fleet, per-node detail
//	GET    /v1/healthz         router readiness (200 while any node is up)
//	GET    /metrics            merged exposition, node="..." labels added
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", r.handleKeyed)
	mux.HandleFunc("POST /v1/plan", r.handleKeyed)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", r.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", r.handleJob)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /v1/healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}

// RoutingKey derives the consistent-hash routing key from a raw /v1/solve
// or /v1/plan body: the engine's own problem cache key, computed from the
// wire request without assembling anything. "" means uncacheable — any
// node serves it equally well, so the router round-robins it. The decode
// here is deliberately lenient (unknown fields, malformed JSON): the node
// the request lands on performs the authoritative validation, keeping
// error text identical to a single-node deployment.
//
// Only the fields CacheKey reads are decoded — the plate, the system's
// key and the solver spec — so the router skips a system's triplets and
// right-hand sides without parsing a single float.
func RoutingKey(body []byte) string {
	var req struct {
		Plate  *engine.PlateSpec `json:"plate"`
		System *struct {
			Key string `json:"key"`
		} `json:"system"`
		Solver engine.SolverSpec `json:"solver"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return ""
	}
	ereq := engine.Request{Plate: req.Plate, Solver: req.Solver}
	if req.System != nil {
		ereq.System = &engine.SystemSpec{Key: req.System.Key}
	}
	return ereq.CacheKey()
}

// nodeOfJob extracts the node name a job ID is prefixed with
// ("n1-j-000042" → "n1"), or "" for an unprefixed ID.
func nodeOfJob(id string) string {
	if i := strings.LastIndex(id, "-j-"); i > 0 {
		return id[:i]
	}
	return ""
}

// handleKeyed proxies /v1/solve and /v1/plan: derive the cache key, walk
// the key's owner and its ring successors (or the round-robin rotation for
// keyless requests), and forward to the first reachable node. A node that
// cannot be reached is marked down on the spot — the ring re-shards and
// the same loop retries the next owner.
func (r *Router) handleKeyed(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "read request body: " + err.Error()})
		return
	}
	key := RoutingKey(body)
	for _, m := range r.healthyCandidates(key) {
		resp, err := r.send(req, m, body)
		if err != nil {
			if req.Context().Err() != nil {
				return // caller gone; nothing to answer
			}
			r.markDown(m, err)
			continue
		}
		m.routes.Inc()
		r.logger.Debug("fleet route", "path", req.URL.Path, "key", key, "node", m.name)
		relayResponse(w, resp)
		return
	}
	writeJSON(w, http.StatusBadGateway, errorResponse{Error: "fleet: no reachable node"})
}

// handleJob proxies the job-scoped routes. A prefixed job ID names its
// issuing node outright; the router goes straight there. If that node is
// gone, so is the job (node state is in-memory): respond 404 so the SDK's
// resubmit path takes over. IDs without a known prefix scatter across the
// healthy members — first node that recognizes the job wins.
func (r *Router) handleJob(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	notFound := func() {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
	}

	if name := nodeOfJob(id); name != "" {
		r.mu.Lock()
		m, known := r.byName[name]
		var up bool
		if known {
			up = m.up
		}
		r.mu.Unlock()
		if known {
			if !up {
				notFound()
				return
			}
			resp, err := r.send(req, m, nil)
			if err != nil {
				if req.Context().Err() != nil {
					return
				}
				r.markDown(m, err)
				notFound()
				return
			}
			m.routes.Inc()
			relayResponse(w, resp)
			return
		}
	}

	// Unknown prefix: scatter. Every miss is a 404 from a live node; only
	// a non-404 response (found, or a real error verdict) is relayed.
	candidates := r.healthyCandidates("")
	reached := false
	for _, m := range candidates {
		resp, err := r.send(req, m, nil)
		if err != nil {
			if req.Context().Err() != nil {
				return
			}
			r.markDown(m, err)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			reached = true
			continue
		}
		m.routes.Inc()
		relayResponse(w, resp)
		return
	}
	if reached {
		notFound()
		return
	}
	writeJSON(w, http.StatusBadGateway, errorResponse{Error: "fleet: no reachable node"})
}

// send forwards req to m and returns the node's response (body unread).
// body is the buffered request body, nil for bodyless methods. The
// outbound request shares the inbound context, so a disconnecting caller
// severs the proxied call too (which is how synchronous-solve cancellation
// propagates through the router).
func (r *Router) send(req *http.Request, m *member, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, m.url+req.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept", "Last-Event-ID", "X-Request-Id"} {
		if v := req.Header.Get(h); v != "" {
			out.Header.Set(h, v)
		}
	}
	return r.hc.Do(out)
}

// relayResponse copies a node response to the caller, flushing after every
// chunk so proxied SSE/ndjson streams stay live.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vv := range resp.Header {
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// FleetHealth is the router's GET /v1/healthz payload.
type FleetHealth struct {
	// Status is "ok" while at least one member is healthy, else "down".
	Status  string       `json:"status"`
	Members int          `json:"members"`
	Healthy int          `json:"healthy"`
	Nodes   []NodeHealth `json:"nodes"`
	// UptimeSeconds is the router's own uptime.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// NodeHealth is one member's verdict within FleetHealth.
type NodeHealth struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Up    bool   `json:"up"`
	Error string `json:"error,omitempty"`
}

// Health reports the router's current view of the fleet without probing.
func (r *Router) Health() FleetHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := FleetHealth{
		Status:        "down",
		Members:       len(r.members),
		UptimeSeconds: time.Since(r.start).Seconds(),
	}
	for _, m := range r.members {
		nh := NodeHealth{Name: m.name, URL: m.url, Up: m.up}
		if !m.up {
			nh.Error = m.lastErr
		} else {
			h.Healthy++
		}
		h.Nodes = append(h.Nodes, nh)
	}
	if h.Healthy > 0 {
		h.Status = "ok"
	}
	return h
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	h := r.Health()
	code := http.StatusOK
	if h.Healthy == 0 {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
