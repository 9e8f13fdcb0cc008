// Package client is the Go SDK for a running solverd: an HTTP
// implementation of the repro.Solver contract speaking the daemon's /v1
// API end to end — synchronous solves, asynchronous submission with SSE
// streaming of per-case results, offline execution planning, job
// cancellation via context, and operational statistics.
//
// A Client and a repro.NewLocal session are behaviorally interchangeable:
// the daemon runs the same engine the local solver embeds, so one Request
// produces the same JobResult through either (modulo timing and the
// in-process-only CGStats detail).
//
//	cl := client.New("http://solverd:8080")
//	res, err := cl.Solve(ctx, repro.Request{
//	    Plate:  &repro.PlateSpec{Rows: 100, Cols: 100},
//	    Solver: repro.SolverSpec{M: 3, Coeffs: "least-squares"},
//	})
//
// Prebuilt *Problem requests are serialized back to the declarative spec
// that reconstructs them (see repro.Request.Wire); the setup amortization
// then happens server-side in the daemon's cache.
//
// # Resilience
//
// Solves are pure computations, so the client treats every call as
// idempotent: transport errors and gateway-class statuses (502/503/504)
// are retried with exponential backoff and jitter (WithRetry), and
// non-streaming calls carry a default per-attempt deadline (WithTimeout).
// SolveStream survives a severed connection: it reattaches to the same
// job with the standard Last-Event-ID header so the server skips what was
// already delivered, and if the job itself is gone (a fleet node died
// mid-batch), it resubmits the request and dedupes replayed cases by case
// index — the caller still sees every case exactly once and one Done.
//
// A keyed SystemSpec crosses the wire in full only until the service has
// accepted it: once a full-body Solve or SolveStream of that key (the
// engine's cache key, so solver settings count) ends done, later Solve,
// SolveStream and Plan calls leave the triplets out and the node resolves
// the matrix from its cache. A node without the entry — cold, evicted,
// re-sharded onto by a fleet, or restarted — answers 409 Conflict, and the
// client resends the full body once. A caller who sends a by-reference
// body itself has no triplets to resend and gets the 409 back. The client
// remembers at most maxRefKeys keys, least recently used first out.
package client

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/engine"
)

// DefaultTimeout bounds each attempt of a non-streaming call when the
// client was constructed without WithTimeout. Streaming attachments are
// exempt: a batch legitimately converges for longer than any fixed bound.
const DefaultTimeout = 2 * time.Minute

const (
	defaultAttempts  = 3
	defaultRetryBase = 100 * time.Millisecond
	maxRetryBackoff  = 2 * time.Second
)

// maxRefKeys bounds the keyed systems a Client remembers as accepted by the
// service. Past it the least recently used key is forgotten, and its next
// request carries the triplets again.
const maxRefKeys = 1024

// Client drives a remote solver service over its /v1 HTTP API. It
// implements repro.Solver. A zero Client is not usable; construct with
// New. Client is safe for concurrent use.
type Client struct {
	base      string
	hc        *http.Client
	timeout   time.Duration // per-attempt bound on non-streaming calls; <=0 means none
	attempts  int           // total tries per idempotent call (1 = no retry)
	retryBase time.Duration // first backoff; doubles per retry, jittered
	refs      *refKeys      // keyed systems the service has accepted in full
}

// refKeys is a bounded LRU set of engine cache keys.
type refKeys struct {
	mu    sync.Mutex
	order *list.List // front = most recently used; values are keys
	index map[string]*list.Element
}

func newRefKeys() *refKeys {
	return &refKeys{order: list.New(), index: make(map[string]*list.Element)}
}

// has reports whether key is remembered, marking it recently used.
func (k *refKeys) has(key string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	el, ok := k.index[key]
	if ok {
		k.order.MoveToFront(el)
	}
	return ok
}

// add remembers key, forgetting the least recently used key when full.
func (k *refKeys) add(key string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if el, ok := k.index[key]; ok {
		k.order.MoveToFront(el)
		return
	}
	k.index[key] = k.order.PushFront(key)
	if k.order.Len() > maxRefKeys {
		oldest := k.order.Back()
		k.order.Remove(oldest)
		delete(k.index, oldest.Value.(string))
	}
}

func (k *refKeys) remove(key string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if el, ok := k.index[key]; ok {
		k.order.Remove(el)
		delete(k.index, key)
	}
}

var _ repro.Solver = (*Client)(nil)

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (pooling, TLS, tracing). The
// client must not enforce an overall request timeout — streams and long
// solves are expected to outlive any fixed deadline; the SDK bounds
// non-streaming calls itself (WithTimeout).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout bounds each attempt of a non-streaming call (solve, plan,
// stats, trace, cancel) at d; d <= 0 removes the bound. The default is
// DefaultTimeout. Streaming attachments are never subject to it — cancel
// SolveStream through its context instead.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetry sets the retry budget: attempts is the total number of tries
// per call (minimum 1, i.e. no retries) and base the first backoff delay,
// doubled per retry with jitter and capped at 2s. Only connection errors,
// per-attempt timeouts, and gateway-class statuses (502/503/504) are
// retried; API rejections (4xx) never are. The default is 3 attempts from
// a 100ms base.
func WithRetry(attempts int, base time.Duration) Option {
	return func(c *Client) {
		if attempts < 1 {
			attempts = 1
		}
		c.attempts = attempts
		if base > 0 {
			c.retryBase = base
		}
	}
}

// New returns a client for the solver daemon at baseURL (e.g.
// "http://localhost:8080"). The URL is not dialed until the first call.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:      strings.TrimRight(baseURL, "/"),
		hc:        &http.Client{},
		timeout:   DefaultTimeout,
		attempts:  defaultAttempts,
		retryBase: defaultRetryBase,
		refs:      newRefKeys(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// apiError is a non-2xx response, carrying the service's error message
// verbatim (which matches the error text the local solver returns for the
// same failure).
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// StatusCode returns the HTTP status of an error returned by this package,
// or 0 when the error is not an API response.
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	return 0
}

// retryableStatus reports whether an HTTP status signals a transient
// condition worth retrying: the gateway-class trio a fleet router or an
// overloaded/draining node returns. Everything else in 4xx/5xx is a
// deterministic verdict on the request.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff returns the delay before retry number retry (0-based): an
// exponentially growing base with uniform jitter in [d/2, d), capped so a
// long outage doesn't stretch waits unboundedly.
func (c *Client) backoff(retry int) time.Duration {
	d := c.retryBase << retry
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	return d/2 + rand.N(d/2+1)
}

// sleepRetry waits out the backoff before the retry'th retry, or returns
// early with ctx's error.
func (c *Client) sleepRetry(ctx context.Context, retry int) error {
	t := time.NewTimer(c.backoff(retry))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attemptCtx derives the per-attempt context for a non-streaming call.
func (c *Client) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return context.WithCancel(ctx)
}

// doJSON performs one idempotent API call — bounded per attempt by the
// client timeout, retried with backoff on connection errors and
// gateway-class statuses — and decodes a 2xx JSON response into out.
// Non-2xx responses come back as *apiError.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
		payload = b
	}
	var lastErr error
	for try := 0; try < c.attempts; try++ {
		if try > 0 {
			if err := c.sleepRetry(ctx, try-1); err != nil {
				return err
			}
		}
		err := func() error {
			actx, cancel := c.attemptCtx(ctx)
			defer cancel()
			var rd io.Reader
			if payload != nil {
				rd = bytes.NewReader(payload)
			}
			req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
			if err != nil {
				return err
			}
			if payload != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := c.hc.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			return decodeResponse(resp, out)
		}()
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's context ended; the per-attempt timeout is the
			// only deadline worth retrying past.
			return err
		}
		if sc := StatusCode(err); sc != 0 && !retryableStatus(sc) {
			return err
		}
	}
	return lastErr
}

// asyncRequest is the POST /v1/solve body for asynchronous submission.
type asyncRequest struct {
	repro.Request
	Async bool `json:"async"`
}

// refKey returns the key under which a full-body keyed system is
// remembered once the service accepts it: the engine's cache key of the
// wire request, the same string a fleet router routes on. Other requests
// (plates, keyless or by-reference systems) have none.
func refKey(wire repro.Request) string {
	sy := wire.System
	if sy == nil || sy.Key == "" || len(sy.I) == 0 {
		return ""
	}
	return (&engine.Request{Plate: wire.Plate, System: sy, Solver: wire.Solver}).CacheKey()
}

// postKeyed POSTs a solve or plan body to path and decodes the answer into
// out. A request whose key (refKey) the service has accepted goes by
// reference, without triplets; if the node answers 409 (no built entry for
// the key), the key is forgotten and the full body is sent once.
func (c *Client) postKeyed(ctx context.Context, path string, wire repro.Request, key string, async bool, out any) error {
	body := func(r repro.Request) any {
		if async {
			return asyncRequest{Request: r, Async: true}
		}
		return r
	}
	if key != "" && c.refs.has(key) {
		sys := *wire.System
		sys.I, sys.J, sys.V = nil, nil, nil
		byRef := wire
		byRef.System = &sys
		err := c.doJSON(ctx, http.MethodPost, path, body(byRef), out)
		if StatusCode(err) != http.StatusConflict {
			return err
		}
		c.refs.remove(key)
	}
	return c.doJSON(ctx, http.MethodPost, path, body(wire), out)
}

func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode/100 != 2 {
		return responseError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

func responseError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return &apiError{status: resp.StatusCode, msg: e.Error}
	}
	return &apiError{status: resp.StatusCode, msg: fmt.Sprintf("client: server returned status %d", resp.StatusCode)}
}

// Solve implements repro.Solver: it runs req synchronously on the daemon.
// Canceling ctx severs the request, which makes the daemon cancel the
// job (the synchronous submitter is its only holder). A job-level failure
// is returned as a non-nil error alongside any partial result. Solves
// longer than the client timeout need WithTimeout raised (or disabled) —
// each attempt is bounded, and a timed-out sync solve is retried like any
// other severed connection because solving is idempotent.
func (c *Client) Solve(ctx context.Context, req repro.Request) (repro.JobResult, error) {
	wire, err := req.Wire()
	if err != nil {
		return repro.JobResult{}, err
	}
	key := refKey(wire)
	var v repro.JobView
	if err := c.postKeyed(ctx, "/v1/solve", wire, key, false, &v); err != nil {
		return repro.JobResult{}, err
	}
	if key != "" && v.State == repro.JobDone {
		c.refs.add(key)
	}
	var res repro.JobResult
	if v.Result != nil {
		res = *v.Result
	}
	if v.State == repro.JobFailed {
		return res, errors.New(v.Error)
	}
	return res, nil
}

// Plan implements repro.Solver via POST /v1/plan: the execution plan the
// daemon would run req with, without solving.
func (c *Client) Plan(ctx context.Context, req repro.Request) (repro.PlanInfo, error) {
	wire, err := req.Wire()
	if err != nil {
		return repro.PlanInfo{}, err
	}
	var info repro.PlanInfo
	if err := c.postKeyed(ctx, "/v1/plan", wire, refKey(wire), false, &info); err != nil {
		return repro.PlanInfo{}, err
	}
	return info, nil
}

// Stats implements repro.Solver via GET /v1/stats.
func (c *Client) Stats() (repro.ServiceStats, error) {
	var st repro.ServiceStats
	if err := c.doJSON(context.Background(), http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return repro.ServiceStats{}, err
	}
	return st, nil
}

// Health fetches GET /v1/healthz: the node's readiness verdict. It does
// not retry — a health probe wants the current answer, not an eventual
// one — but a draining node's 503 still decodes into h with ok=false.
func (c *Client) Health(ctx context.Context) (h repro.Health, ok bool, err error) {
	actx, cancel := c.attemptCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return h, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return h, false, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, false, fmt.Errorf("client: decode health: %w", err)
	}
	return h, resp.StatusCode == http.StatusOK, nil
}

// Trace implements repro.Solver via GET /v1/jobs/{id}/trace: the job's
// stage timeline and sampled convergence curve, during and after the
// solve (for as long as the daemon retains the job in history).
func (c *Client) Trace(ctx context.Context, jobID string) (repro.TraceInfo, error) {
	var ti repro.TraceInfo
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/trace", nil, &ti); err != nil {
		return repro.TraceInfo{}, err
	}
	return ti, nil
}

// Cancel aborts a job by ID (DELETE /v1/jobs/{id}); callers normally
// cancel through SolveStream's context instead.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// Close implements repro.Solver. The daemon owns the session state; Close
// only releases the client's idle connections.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// SolveStream implements repro.Solver: it submits req asynchronously,
// attaches to the job's SSE stream, and invokes on for every per-case
// completion as it converges, then once more with the terminal Done event.
// Canceling ctx cancels the remote job (DELETE /v1/jobs/{id}) and returns
// ctx.Err().
//
// The stream is resilient within the client's retry budget: a severed
// connection reattaches to the same job carrying Last-Event-ID (the
// server replays only what this client missed), and a lost job — a fleet
// node died taking its in-memory state with it — is resubmitted from
// scratch, with already-delivered cases deduped by case index so on still
// observes each case exactly once.
func (c *Client) SolveStream(ctx context.Context, req repro.Request, on func(repro.CaseEvent)) error {
	wire, err := req.Wire()
	if err != nil {
		return err
	}

	// seen dedupes case delivery across resubmissions: a re-run job solves
	// (and streams) every case again, but the caller already has some.
	// lastSeq tracks the server's per-job event sequence for reattaches;
	// it resets with each new job, whose numbering restarts at 1.
	seen := make(map[int]bool)
	lastSeq := 0
	forward := func(ev repro.CaseEvent) {
		if ev.Seq > lastSeq {
			lastSeq = ev.Seq
		}
		if ev.Done == nil && ev.Case >= 0 {
			if seen[ev.Case] {
				return
			}
			seen[ev.Case] = true
		}
		on(ev)
	}

	key := refKey(wire)
	submit := func() (string, error) {
		var accepted repro.JobView
		if err := c.postKeyed(ctx, "/v1/solve", wire, key, true, &accepted); err != nil {
			return "", err
		}
		if accepted.ID == "" {
			return "", errors.New("client: async submission returned no job id")
		}
		return accepted.ID, nil
	}

	jobID, err := submit()
	if err != nil {
		return err
	}

	resubmits := c.attempts // budget for re-running the job elsewhere
	failures := 0           // consecutive failed attaches on the current job
	for {
		done, err := c.attachStream(ctx, jobID, lastSeq, forward)
		if err == nil {
			if done.State == repro.JobFailed {
				return errors.New(done.Error)
			}
			if key != "" && done.State == repro.JobDone {
				c.refs.add(key)
			}
			return nil
		}
		if ctx.Err() != nil {
			// Caller cancellation: the abandoned remote job has no other
			// holder, so cancel it before reporting.
			c.cancelDetached(jobID)
			return ctx.Err()
		}
		if sc := StatusCode(err); sc == http.StatusNotFound {
			// The job is gone — the node holding it died, or history
			// evicted it. The solve is pure: run it again as a fresh job
			// and let forward dedupe whatever the caller already saw.
			resubmits--
			if resubmits < 0 {
				return err
			}
			lastSeq = 0
			failures = 0
			jobID, err = submit()
			if err != nil {
				return err
			}
			continue
		} else if sc != 0 && !retryableStatus(sc) {
			// A deterministic API rejection; retrying cannot change it.
			c.cancelDetached(jobID)
			return err
		}
		// Transient: severed connection, gateway error, or mid-stream EOF.
		// Back off and reattach to the same job with Last-Event-ID.
		failures++
		if failures >= c.attempts {
			return err
		}
		if err := c.sleepRetry(ctx, failures-1); err != nil {
			c.cancelDetached(jobID)
			return err
		}
	}
}

// attachStream opens one SSE attachment to jobID and pumps its events
// through on until the done frame (whose JobView it returns) or a
// transport failure. lastSeq > 0 is presented as Last-Event-ID so the
// server skips events already delivered on a previous attachment. The
// attachment itself is never subject to the client timeout.
func (c *Client) attachStream(ctx context.Context, jobID string, lastSeq int, on func(repro.CaseEvent)) (repro.JobView, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return repro.JobView{}, err
	}
	hreq.Header.Set("Accept", "text/event-stream")
	if lastSeq > 0 {
		hreq.Header.Set("Last-Event-ID", strconv.Itoa(lastSeq))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return repro.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return repro.JobView{}, responseError(resp)
	}
	return readStream(resp.Body, on)
}

// cancelDetached cancels a job the caller has abandoned, on a fresh
// short-lived context (the caller's is typically already canceled).
func (c *Client) cancelDetached(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.Cancel(ctx, id) //nolint:errcheck // best-effort: the job may already be done
}

// readStream consumes an SSE body, invoking on per case event and once
// with the terminal Done event, whose JobView it returns. Lines are read
// with an unbounded reader: a data frame carrying a large solution vector
// can run to many megabytes, far past any fixed scanner token limit.
func readStream(body io.Reader, on func(repro.CaseEvent)) (repro.JobView, error) {
	var (
		event string
		data  []byte
	)
	r := bufio.NewReader(body)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if err == io.EOF && line == "" {
				return repro.JobView{}, errors.New("client: stream ended without a done event")
			}
			if err != io.EOF {
				return repro.JobView{}, err
			}
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append([]byte(nil), strings.TrimPrefix(line, "data: ")...)
		case line == "" && event != "":
			switch event {
			case "case":
				var ev repro.CaseEvent
				if err := json.Unmarshal(data, &ev); err != nil {
					return repro.JobView{}, fmt.Errorf("client: bad case event: %w", err)
				}
				on(ev)
			case "done":
				var v repro.JobView
				if err := json.Unmarshal(data, &v); err != nil {
					return repro.JobView{}, fmt.Errorf("client: bad done event: %w", err)
				}
				on(repro.CaseEvent{Case: -1, Done: &v})
				return v, nil
			}
			event, data = "", nil
		}
	}
}
