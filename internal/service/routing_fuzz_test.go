package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/fleet"
)

// FuzzRoutingKey pins the fleet router's narrow key decode to the node's
// full one: whenever a node accepts a /v1/solve or /v1/plan body (decode,
// then Validate), fleet.RoutingKey of the raw body must equal the node's
// CacheKey, for full and by-reference systems alike — otherwise a warm key
// would route away from the node that cached it. Neither side may panic.
func FuzzRoutingKey(f *testing.F) {
	for _, seed := range []string{
		// The README's curl bodies.
		`{"plate": {"rows": 20, "cols": 20}, "solver": {"m": 3, "coeffs": "least-squares"}, "omit_solution": true}`,
		`{"system": {"n": 2, "i": [0,1], "j": [0,1], "v": [2,2], "f": [1,0], "key": "demo"}, "solver": {"splitting": "jacobi", "m": 2}}`,
		`{"plate": {"rows": 40, "cols": 40}, "solver": {"m": 3}, "async": true}`,
		`{"plate": {"rows": 30, "cols": 30, "tractions": [1, 2.5, -1]}, "solver": {"m": 3, "coeffs": "least-squares"}, "omit_solution": true}`,
		`{"system": {"n": 3, "i": [0,1,2], "j": [0,1,2], "v": [2,2,2], "fs": [[1,0,0],[0,1,0],[0,0,1]], "key": "demo-batch"}, "solver": {"splitting": "jacobi", "m": 2}}`,
		`{"plate": {"rows": 30, "cols": 30}, "solver": {"m": 3, "coeffs": "least-squares", "backend": "dia"}, "omit_solution": true}`,
		`{"plate": {"rows": 40, "cols": 40, "tractions": [1, 1e-9, 1e-9]}, "solver": {"m": 0}, "omit_solution": true, "async": true}`,
		`{"plate": {"rows": 200, "cols": 200}, "solver": {"m": 2, "backend": "decomposed", "subdomains": 8}, "omit_solution": true}`,
		`{"system": {"n": 2, "f": [1,0], "key": "demo"}, "solver": {"splitting": "jacobi", "m": 2}}`,
		// A plate with every default spelled out shares the shorthand's key.
		`{"plate": {"rows": 20, "cols": 20, "e": 1, "nu": 0.3, "t": 1, "traction": 1}, "solver": {"m": 3, "splitting": "ssor-multicolor", "coeffs": "ones", "omega": 1}}`,
		// A keyless system routes round-robin ("" on both sides).
		`{"system": {"n": 1, "i": [0], "j": [0], "v": [4], "f": [1]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		routed := fleet.RoutingKey(body)
		var req solveHTTPRequest
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		if decodeBody(rec, hreq, &req) != nil || req.Validate() != nil {
			return
		}
		if key := req.CacheKey(); routed != key {
			t.Fatalf("router key %q, node key %q for body %s", routed, key, body)
		}
	})
}
