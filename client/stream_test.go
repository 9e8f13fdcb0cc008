package client

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"repro"
	"repro/internal/service"
)

// sseEvents writes the stream the service sends for these case events and
// final view, frame by frame through its own SSE writer.
func sseEvents(t *testing.T, cases []repro.CaseEvent, done repro.JobView) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range cases {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if err := service.WriteSSE(&buf, ev.Seq, "case", data); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}
	if err := service.WriteSSE(&buf, len(cases)+1, "done", data); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode runs readStream over raw, returning every event it delivered.
func decode(raw []byte) ([]repro.CaseEvent, repro.JobView, error) {
	var got []repro.CaseEvent
	v, err := readStream(bytes.NewReader(raw), func(ev repro.CaseEvent) { got = append(got, ev) })
	return got, v, err
}

// eventsFrom derives a deterministic set of case events and a final view
// from fuzz input.
func eventsFrom(raw []byte) ([]repro.CaseEvent, repro.JobView) {
	var cases []repro.CaseEvent
	for i := 0; i < len(raw)%5; i++ {
		cases = append(cases, repro.CaseEvent{
			Seq:  i + 1,
			Case: int(raw[i]),
			Result: &repro.CaseResult{
				Converged:   raw[i]%2 == 0,
				Iterations:  int(raw[i]) * 7,
				FinalRelRes: float64(raw[i]) / 3,
			},
		})
	}
	done := repro.JobView{ID: "j-" + hex.EncodeToString(raw), State: "done", CasesDone: len(cases), CasesTotal: len(cases)}
	return cases, done
}

// FuzzReadStream: arbitrary bytes never panic the SSE reader, and frames
// written by the service's SSE writer decode to the events they carry with
// "\n" or "\r\n" line endings and with or without the space after "data:".
func FuzzReadStream(f *testing.F) {
	f.Add([]byte("id: 1\nevent: case\ndata: {\"seq\":1,\"case\":0}\n\nid: 2\nevent: done\ndata: {\"id\":\"j\"}\n\n"))
	f.Add([]byte("id: 1\r\nevent: done\r\ndata:{\"id\":\"j\",\"state\":\"done\"}\r\n\r\n"))
	f.Add([]byte(": comment\nevent: case\ndata: {\"case\"\ndata: :1}\n\nevent:done\ndata:{}\n\n"))
	f.Add([]byte("event: case\ndata: not json\n\n"))
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, raw []byte) {
		decode(raw) //nolint:errcheck // only a panic fails here

		cases, done := eventsFrom(raw)
		want := append(append([]repro.CaseEvent(nil), cases...), repro.CaseEvent{Case: -1, Done: &done})
		lf := sseEvents(t, cases, done)
		for name, stream := range map[string][]byte{
			"lf":            lf,
			"crlf":          bytes.ReplaceAll(lf, []byte("\n"), []byte("\r\n")),
			"data-no-space": bytes.ReplaceAll(lf, []byte("\ndata: "), []byte("\ndata:")),
		} {
			got, v, err := decode(stream)
			if err != nil {
				t.Fatalf("%s: %v\n%q", name, err, stream)
			}
			if !reflect.DeepEqual(v, done) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded %+v / %+v, want %+v / %+v", name, got, v, want, done)
			}
		}
	})
}
