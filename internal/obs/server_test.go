package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestServeAndGracefulClose runs the real Serve path on an ephemeral
// port: the index page must advertise the debug endpoints, /metrics
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
	for _, want := range []string{"/metrics", "/debug/qos", "/debug/trace", "/debug/slo",
		"/debug/decisions", "/debug/timeline", "/debug/pprof/"} {
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

// debugPathSeq makes registered paths unique across test runs (the
// extras registry is process-global, so -count=2 reuses it).
var debugPathSeq atomic.Int64

// TestRegisterDebugCollision pins first-wins registration: the second
// claim on a path is rejected with an error and the first handler keeps
// serving, so endpoint ownership never depends on package init order.
func TestRegisterDebugCollision(t *testing.T) {
	path := fmt.Sprintf("/debug/collision-test-%d", debugPathSeq.Add(1))
	first := func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "first") }
	second := func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "second") }

	if err := RegisterDebug(path, first); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if err := RegisterDebug(path, second); err == nil {
		t.Fatal("second registration of the same path should be rejected")
	}

	rr := httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if rr.Body.String() != "first" {
		t.Errorf("served %q, want the first handler's output", rr.Body.String())
	}

	// Unlisted extras still show up on the /debug index page.
	rr = httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug", nil))
	if !strings.Contains(rr.Body.String(), path) {
		t.Errorf("/debug index missing registered extra %s:\n%s", path, rr.Body.String())
	}
}
