package obs

import (
	"sort"
	"sync"
	"time"
)

// Trace is one job's stage timeline: an append-only sequence of named
// spans (queue wait, cache checkout, assembly, spectral estimation,
// per-tile solves, …) with wall time, worker id and per-span attributes.
// Spans are recorded live from the worker and snapshot at any time from
// other goroutines (the trace endpoint serves running jobs too); a
// finished trace is replayable forever — like the case-event stream, it
// outlives the job's completion.
type Trace struct {
	mu    sync.Mutex
	id    string
	start time.Time
	ended time.Time // zero while the job is still running
	spans []*Span
}

// Span is one stage of a trace. Mutate only through its methods; every
// field is guarded by the owning trace's mutex so concurrent snapshots see
// consistent state.
type Span struct {
	tr         *Trace
	name       string
	start, end time.Time
	worker     int
	iterations int
	attrs      map[string]any
}

// NewTrace starts a trace identified by id (the job id), with its clock
// zero at now.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace's identifier.
func (t *Trace) ID() string { return t.id }

// Start opens a new span. End closes it, or Finish does at the latest; a
// span still open snapshots with the current time as its provisional end.
func (t *Trace) Start(name string) *Span {
	s := &Span{tr: t, name: name, start: time.Now(), worker: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Record appends an already-measured, closed span: a stage whose timing
// was observed outside the trace's live Start/End bracketing (e.g. the
// per-subdomain halo/sweep/reduce breakdown a decomposed solve measures on
// its own ranks and attributes to the trace afterwards). Unlike live
// spans, recorded spans may overlap one another — concurrent stages sum
// past wall time by design.
func (t *Trace) Record(name string, start time.Time, d time.Duration) *Span {
	s := &Span{tr: t, name: name, start: start, end: start.Add(d), worker: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Finish marks the whole trace complete: it sets the total duration's end
// point and closes every span still open there. Idempotent.
func (t *Trace) Finish() {
	t.mu.Lock()
	if t.ended.IsZero() {
		t.ended = time.Now()
		for _, s := range t.spans {
			if s.end.IsZero() {
				s.end = t.ended
			}
		}
	}
	t.mu.Unlock()
}

// End closes the span at the current time.
func (s *Span) End() {
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// SetWorker records the worker goroutine that ran the stage.
func (s *Span) SetWorker(w int) *Span {
	s.tr.mu.Lock()
	s.worker = w
	s.tr.mu.Unlock()
	return s
}

// SetIterations records the stage's iteration count (CG iterations for
// solve spans).
func (s *Span) SetIterations(n int) *Span {
	s.tr.mu.Lock()
	s.iterations = n
	s.tr.mu.Unlock()
	return s
}

// SetAttr attaches one key/value attribute (strings, ints, floats, bools —
// anything encoding/json renders).
func (s *Span) SetAttr(key string, value any) *Span {
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.tr.mu.Unlock()
	return s
}

// SpanView is the JSON snapshot of one span. Times are offsets from the
// trace start, in seconds, so a timeline renders without clock context.
type SpanView struct {
	Name string `json:"name"`
	// StartSeconds is the span's offset from the trace start.
	StartSeconds float64 `json:"start_seconds"`
	// DurationSeconds is the span's wall time (up to "now" for a span still
	// open when the snapshot was taken).
	DurationSeconds float64 `json:"duration_seconds"`
	// Worker is the worker goroutine id that ran the stage (-1 when the
	// stage ran outside the worker pool, e.g. the queue wait).
	Worker int `json:"worker"`
	// Iterations is the stage's iteration count (solve spans), 0 otherwise.
	Iterations int `json:"iterations,omitempty"`
	// Attrs carries stage-specific attributes (the planner's decision, tile
	// case ranges, cache hit/miss).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// TraceView is the JSON snapshot of a trace: the spans in start order.
type TraceView struct {
	ID string `json:"id"`
	// TotalSeconds is trace start → Finish (or → now while running).
	TotalSeconds float64    `json:"total_seconds"`
	Spans        []SpanView `json:"spans"`
}

// View snapshots the trace. Safe to call at any time, from any goroutine,
// any number of times.
func (t *Trace) View() TraceView {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.ended
	if end.IsZero() {
		end = now
	}
	v := TraceView{
		ID:           t.id,
		TotalSeconds: end.Sub(t.start).Seconds(),
		Spans:        make([]SpanView, 0, len(t.spans)),
	}
	for _, s := range t.spans {
		send := s.end
		if send.IsZero() {
			send = now
		}
		sv := SpanView{
			Name:            s.name,
			StartSeconds:    s.start.Sub(t.start).Seconds(),
			DurationSeconds: send.Sub(s.start).Seconds(),
			Worker:          s.worker,
			Iterations:      s.iterations,
		}
		if len(s.attrs) > 0 {
			sv.Attrs = make(map[string]any, len(s.attrs))
			for k, val := range s.attrs {
				sv.Attrs[k] = val
			}
		}
		v.Spans = append(v.Spans, sv)
	}
	// Spans are appended in Start order, which is already chronological for
	// a single worker; sort defensively so concurrent stages (queue span
	// started by the submitter) still render as a timeline.
	sort.SliceStable(v.Spans, func(i, j int) bool {
		return v.Spans[i].StartSeconds < v.Spans[j].StartSeconds
	})
	return v
}
