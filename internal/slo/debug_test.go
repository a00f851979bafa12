package slo

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/obs"
)

// TestDebugSLOEndpoint mounts an engine at /debug/slo on the obs mux
// and drives it end to end: that engine's conformance view, not the
// default engine's, must come back over HTTP, including the ?client=
// filter.
func TestDebugSLOEndpoint(t *testing.T) {
	base := time.Unix(2000, 0)
	e := NewEngine(testSpec())
	feed(e, "http-c1", base, 0.5, 8)
	e.Poll(base.Add(200 * time.Millisecond))

	srv := httptest.NewServer(obs.Handler(obs.Endpoint{Path: "/debug/slo", Desc: "SLO conformance", Handler: e}))
	defer srv.Close()

	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		return string(b)
	}

	body := get(srv.URL + "/debug/slo")
	for _, want := range []string{"slo conformance", "http-c1", "violated"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/slo missing %q:\n%s", want, body)
		}
	}

	// The filter drops other clients' rows.
	filtered := get(srv.URL + "/debug/slo?client=no-such-client")
	if strings.Contains(filtered, "http-c1") {
		t.Errorf("?client= filter leaked http-c1:\n%s", filtered)
	}

	// The debug index advertises the endpoint.
	index := get(srv.URL + "/debug")
	if !strings.Contains(index, "/debug/slo") {
		t.Errorf("debug index does not list /debug/slo:\n%s", index)
	}
}
