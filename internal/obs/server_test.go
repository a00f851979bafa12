package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// TestServeAndGracefulClose runs the real Serve path on an ephemeral
// port: the index page must advertise the built-in endpoints, /metrics
// must answer, and Close must tear the listener down so further
// connections fail.
func TestServeAndGracefulClose(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	base := "http://" + srv.ln.Addr().String()

	resp, err := http.Get(base + "/debug")
	if err != nil {
		t.Fatalf("GET /debug: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	index := string(body)
	for _, want := range []string{"/metrics", "/debug/qos", "/debug/trace", "/debug/pprof/"} {
		if !strings.Contains(index, want) {
			t.Errorf("index missing %s:\n%s", want, index)
		}
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "aqos_") {
		t.Error("/metrics carries no aqos_ samples")
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("server still answering after Close")
	}
}

// TestIndexListsWhatIsMounted builds a handler with two extra
// endpoints: every path on the /debug index answers with its own
// handler, not the index, and a path nobody mounted — the pages other
// programs mount among them — answers 404 instead of the index.
func TestIndexListsWhatIsMounted(t *testing.T) {
	page := func(body string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, body) })
	}
	h := Handler(
		Endpoint{"/debug/one", "the first extra page", page("one")},
		Endpoint{"/debug/two", "the second extra page", page("two")},
	)
	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr
	}

	index := get("/debug").Body.String()
	if root := get("/"); root.Code != http.StatusOK || root.Body.String() != index {
		t.Errorf("GET / = %d %q, want the index", root.Code, root.Body.String())
	}
	var listed []string
	for _, line := range strings.Split(index, "\n") {
		if f := strings.Fields(line); len(f) > 1 && strings.HasPrefix(f[0], "/") {
			listed = append(listed, f[0])
		}
	}
	want := []string{"/metrics", "/debug/qos", "/debug/trace", "/debug/pprof/", "/debug/one", "/debug/two"}
	if !slices.Equal(listed, want) {
		t.Errorf("index lists %v, want %v", listed, want)
	}
	for _, path := range listed {
		if rr := get(path); rr.Code != http.StatusOK || rr.Body.String() == index {
			t.Errorf("GET %s = %d, served by the index: %v", path, rr.Code, rr.Body.String() == index)
		}
	}
	if body := get("/debug/two").Body.String(); body != "two" {
		t.Errorf("GET /debug/two = %q, want its own handler's page", body)
	}
	for _, path := range []string{"/debug/slo", "/debug/timeline", "/debug/decisions", "/debug/", "/nowhere"} {
		if rr := get(path); rr.Code != http.StatusNotFound {
			t.Errorf("GET %s (not mounted) = %d, want 404", path, rr.Code)
		}
	}
}
