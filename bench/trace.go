package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro"
)

// Traced requests carry an X-Request-Id with this prefix; the router
// forwards it to the node, so both handlers can tag their spans with it.
const benchIDPrefix = "bench-"

// reqIDKey carries a traced request's ID in the context of its SDK call.
type reqIDKey struct{}

type interval struct{ start, end time.Time }

func (iv interval) seconds() float64 { return iv.end.Sub(iv.start).Seconds() }

// recorder keeps the HTTP boundary spans of traced requests in memory:
// the client transport, the router handler and the node handler, keyed by
// request ID. A nil recorder records nothing and wraps nothing.
type recorder struct {
	mu    sync.Mutex
	spans map[string]map[string]interval
}

func newRecorder() *recorder { return &recorder{spans: map[string]map[string]interval{}} }

func (rec *recorder) put(id, name string, iv interval) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.spans[id] == nil {
		rec.spans[id] = map[string]interval{}
	}
	rec.spans[id][name] = iv
}

// take removes and returns the boundary spans recorded for id.
func (rec *recorder) take(id string) map[string]interval {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := rec.spans[id]
	delete(rec.spans, id)
	return s
}

// wrap times h for traced solve requests.
func (rec *recorder) wrap(name string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if r.Method != http.MethodPost || !strings.HasPrefix(id, benchIDPrefix) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.put(id, name, interval{start, time.Now()})
	})
}

// transport stamps traced solve requests with their ID and times them from
// the first byte sent to the response body's end. The SDK decodes the body
// as it streams in, so this span includes the client's response decode.
func (rec *recorder) transport(base http.RoundTripper) http.RoundTripper {
	if rec == nil {
		return base
	}
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		id, _ := r.Context().Value(reqIDKey{}).(string)
		if id == "" || r.Method != http.MethodPost {
			return base.RoundTrip(r)
		}
		r = r.Clone(r.Context())
		r.Header.Set("X-Request-Id", id)
		start := time.Now()
		resp, err := base.RoundTrip(r)
		if err != nil {
			return resp, err
		}
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			rec.put(id, "transport", interval{start, time.Now()})
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// timedBody calls done once, at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// tracedReq is everything recorded about one traced request: the
// benchmark's span around the solver call, the HTTP boundary spans (fleet
// only) and the engine's own job trace, fetched after the call returned.
type tracedReq struct {
	id       string
	call     interval
	res      repro.JobResult
	ti       repro.TraceInfo
	boundary map[string]interval
	j        job
}

func (t *tracedReq) latency() float64 { return t.call.seconds() }

// hop is the router's own time: its handler span minus the node's.
func (t *tracedReq) hop() float64 {
	r, ok1 := t.boundary["router"]
	n, ok2 := t.boundary["node"]
	if !ok1 || !ok2 {
		return 0
	}
	return r.seconds() - n.seconds()
}

// engineSum sums the durations of the job trace's spans with these names.
func (t *tracedReq) engineSum(names ...string) (sum float64, found bool) {
	for _, s := range t.ti.Spans {
		if slices.Contains(names, s.Name) {
			sum += s.DurationSeconds
			found = true
		}
	}
	return sum, found
}

// span is one entry of bench-trace.json. Times are seconds since the run
// started; Self is the span's duration minus the part of it its children
// cover.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Request string  `json:"request"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Source  string  `json:"source"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Self    float64 `json:"self"`
}

// layerOf maps an engine span name to the module that does the work.
var layerOf = map[string]string{
	"queue": "engine", "cache_wait": "engine", "emit": "engine", "cancelled": "engine",
	"assemble": "fem", "splitting_build": "splitting", "spectral_estimate": "eigen",
	"precond_build": "precond", "plan": "plan", "feedback": "plan", "dia_convert": "sparse",
	"decompose": "decomp", "halo_exchange": "decomp", "local_sweep": "decomp", "reduce": "decomp",
	"tile": "cg", "solve": "cg",
}

// rankSpan reports the per-subdomain spans a decomposed solve records after
// the fact; they run concurrently inside their case's solve span.
func rankSpan(name string) bool {
	return name == "halo_exchange" || name == "local_sweep" || name == "reduce"
}

// spans lays the request out as a span tree: the SDK call, then (through
// HTTP) transport ⊃ router ⊃ node, then the engine job and its stage spans.
// The job trace has its own clock, so the job span is placed inside its
// parent: at the call's start in process, centred in the node span over
// HTTP. Only positions depend on that placement, not self times.
func (t *tracedReq) spans(epoch time.Time, firstID int) []span {
	at := func(tm time.Time) float64 { return tm.Sub(epoch).Seconds() }
	var out []span
	add := func(parent int, name, layer, source string, start, end float64) int {
		id := firstID + len(out)
		out = append(out, span{ID: id, Parent: parent, Request: t.id, Name: name, Layer: layer, Source: source, Start: start, End: end})
		return id
	}
	callLayer := "repro"
	if len(t.boundary) > 0 {
		callLayer = "client"
	}
	parent := add(0, "request", callLayer, "bench", at(t.call.start), at(t.call.end))
	jobStart := at(t.call.start)
	for _, b := range []struct{ name, layer string }{{"transport", "http"}, {"router", "fleet"}, {"node", "service"}} {
		if iv, ok := t.boundary[b.name]; ok {
			parent = add(parent, b.name, b.layer, "bench", at(iv.start), at(iv.end))
			jobStart = at(iv.start) + (iv.seconds()-t.ti.TotalSeconds)/2
		}
	}
	job := add(parent, "job", "engine", "engine", jobStart, jobStart+t.ti.TotalSeconds)
	solve := job
	for _, s := range t.ti.Spans {
		p := job
		if rankSpan(s.Name) {
			p = solve
		}
		start := jobStart + s.StartSeconds
		id := add(p, s.Name, layerOf[s.Name], "engine", start, start+s.DurationSeconds)
		if s.Name == "solve" {
			solve = id
		}
	}
	selfTimes(out)
	return out
}

// selfTimes fills in each span's self time: its duration minus the union
// of its children's intervals, clipped to the span.
func selfTimes(spans []span) {
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		covered := 0.0
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b [2]float64) int {
			switch {
			case a[0] < b[0]:
				return -1
			case a[0] > b[0]:
				return 1
			}
			return 0
		})
		cur := [2]float64{s.Start, s.Start}
		for _, k := range kids {
			lo, hi := max(k[0], s.Start), min(k[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				covered += cur[1] - cur[0]
				cur = [2]float64{lo, hi}
			} else {
				cur[1] = max(cur[1], hi)
			}
		}
		covered += cur[1] - cur[0]
		s.Self = (s.End - s.Start) - covered
	}
}

// coverage is the share of the request's latency attributed to a named
// layer: everything except the engine job's own gaps between its stages.
func coverage(spans []span) float64 {
	var lat, gap float64
	for _, s := range spans {
		switch s.Name {
		case "request":
			lat = s.End - s.Start
		case "job":
			gap = s.Self
		}
	}
	if lat <= 0 {
		return 0
	}
	return 1 - gap/lat
}

// writeTrace writes every traced request's spans to path.
func writeTrace(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
