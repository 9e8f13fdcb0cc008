package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// WriteSSE writes one server-sent event frame: its id, event and data
// lines and the blank line that dispatches it, each ended by "\n". data
// must hold no line break (encoding/json output never does).
func WriteSSE(w io.Writer, id int, event string, data []byte) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
	return err
}

// streamJob streams job's per-case results to one HTTP client as the
// columns converge, then emits a terminal event carrying the finished job
// view. Two wire formats share the mechanics:
//
//   - SSE (Accept: text/event-stream): "event: case" frames carrying
//     {"seq":n,"case":i,"result":{...}}, closed by one "event: done" frame
//     with the JobView. Every case frame carries an "id:" line with the
//     event's per-job delivery sequence (1, 2, 3, …).
//   - chunked JSON lines (?watch=1): one {"seq":n,"case":i,"result":{...}}
//     object per line, closed by {"done":{JobView}}.
//
// A subscriber joining late replays the already-finished cases first, so
// the stream always delivers every case exactly once regardless of when
// the client attached. A reattaching subscriber that presents the standard
// Last-Event-ID header (the highest "id:" it saw) skips the cases already
// delivered on its previous connection instead of replaying everything.
// A disconnected client just detaches (an async job may have other
// watchers or pollers); the synchronous solve handler and
// DELETE /v1/jobs/{id} are the cancellation paths.
func (s *Service) streamJob(w http.ResponseWriter, r *http.Request, job *Job, sse bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "streaming unsupported by this connection"})
		return
	}
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// A reattaching client presents the last event ID it received; events
	// at or below it were already delivered on the previous connection.
	lastSeen := 0
	if v, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil && v > 0 {
		lastSeen = v
	}

	replay, ch, stop := s.Watch(job)
	defer stop()

	maxSeq := lastSeen
	emitCase := func(ev CaseEvent) bool {
		if ev.Seq <= lastSeen {
			return true // already delivered before the reattach
		}
		if ev.Seq > maxSeq {
			maxSeq = ev.Seq
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			err = WriteSSE(w, ev.Seq, "case", data)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", data)
		}
		if err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	emitDone := func(v JobView) {
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		if sse {
			WriteSSE(w, maxSeq+1, "done", data) //nolint:errcheck // the stream ends here either way
		} else {
			fmt.Fprintf(w, "{\"done\":%s}\n", data)
		}
		flusher.Flush()
	}

	for _, ev := range replay {
		if !emitCase(ev) {
			return
		}
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				// The job finished and every case event has been
				// delivered; close with the final view.
				emitDone(s.ViewOf(job))
				return
			}
			if !emitCase(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
