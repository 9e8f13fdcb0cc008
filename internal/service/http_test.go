package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHTTPSolveSyncAndStats(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := solveHTTPRequest{SolveRequest: plateReq(10, 10, 3)}
	resp, body := postJSON(t, srv, "/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != JobDone || v.Result == nil || !v.Result.Converged {
		t.Fatalf("sync solve: %+v", v)
	}

	// Second identical solve: the HTTP-visible proof of cache reuse.
	resp, body = postJSON(t, srv, "/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.CacheHit {
		t.Fatalf("second solve not a cache hit: %+v", v)
	}

	var st Stats
	if code := getJSON(t, srv, "/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.JobsDone != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LatencyP50 <= 0 {
		t.Fatalf("latency p50 = %g", st.LatencyP50)
	}
}

func TestHTTPAsyncJobPolling(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := solveHTTPRequest{SolveRequest: plateReq(16, 16, 2), Async: true}
	resp, body := postJSON(t, srv, "/v1/solve", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatalf("no job id: %s", body)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, srv, "/v1/jobs/"+v.ID, &v); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if v.State == JobDone || v.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.State != JobDone || !v.Result.Converged {
		t.Fatalf("async job: %+v", v)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Unknown job.
	var e errorResponse
	if code := getJSON(t, srv, "/v1/jobs/j-999999", &e); code != http.StatusNotFound {
		t.Fatalf("unknown job status %d", code)
	}

	// Malformed body.
	resp, err := srv.Client().Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d", resp.StatusCode)
	}

	// Unknown field (typo'd spec) is rejected rather than ignored.
	resp, body := postJSON(t, srv, "/v1/solve", map[string]any{"plat": map[string]int{"rows": 4, "cols": 4}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status %d: %s", resp.StatusCode, body)
	}

	// The solver spec has no kernel field: the kernel set is the
	// process-wide REPRO_KERNEL switch, not a per-request knob.
	resp, body = postJSON(t, srv, "/v1/solve", map[string]any{
		"plate":  map[string]int{"rows": 4, "cols": 4},
		"solver": map[string]any{"m": 1, "kernel": "portable"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("solver.kernel status %d: %s", resp.StatusCode, body)
	}

	// Invalid request shape.
	resp, body = postJSON(t, srv, "/v1/solve", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request status %d: %s", resp.StatusCode, body)
	}

	// Wrong method.
	if code := getJSON(t, srv, "/v1/solve", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve status %d", code)
	}
}

func TestHTTPQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var saw503 bool
	for i := 0; i < 50 && !saw503; i++ {
		resp, _ := postJSON(t, srv, "/v1/solve", solveHTTPRequest{SolveRequest: slowReq(), Async: true})
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusServiceUnavailable:
			saw503 = true
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if !saw503 {
		t.Fatal("bounded queue never returned 503 over HTTP")
	}
}

func ExampleService_Handler() {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := []byte(`{"plate":{"rows":8,"cols":8},"solver":{"m":2,"coeffs":"least-squares"}}`)
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		panic(err)
	}
	fmt.Println(resp.StatusCode, v.State, v.Result.Converged)
	// Output: 200 done true
}
