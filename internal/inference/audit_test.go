package inference

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/selector"
)

func TestDecideCountsRuleFirings(t *testing.T) {
	e := New("", nil, clock.Wall)
	ctr := metrics.C(metrics.RuleFired("cpu-load-budget"))
	before := ctr.Load()
	e.Decide(selector.Attributes{StateCPULoad: selector.N(80)})
	e.Decide(selector.Attributes{StateCPULoad: selector.N(90)})
	if got := ctr.Load(); got != before+2 {
		t.Errorf("rule counter %d -> %d, want +2", before, got)
	}
	// Silent rules are pre-touched: family present once an engine
	// exists, not at first firing.
	if _, ok := metrics.Counters()[metrics.RuleFired("page-fault-budget")]; !ok {
		t.Error("page-fault-budget counter not pre-touched at New")
	}
}

func TestDecideRecordsAudit(t *testing.T) {
	ResetAudits()
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		ResetAudits()
	})

	e := New("wired-0", nil, clock.Wall)
	e.Decide(selector.Attributes{
		StateCPULoad:   selector.N(80),
		StateBandwidth: selector.N(20_000),
	})

	e2 := New("wired-1", nil, clock.Wall)
	e2.Decide(selector.Attributes{StatePageFaults: selector.N(120)})

	all := Audits("", 0)
	if len(all) != 2 {
		t.Fatalf("audit retained %d entries, want 2", len(all))
	}
	// Newest first.
	if all[0].Client != "wired-1" || all[1].Client != "wired-0" {
		t.Errorf("audit order/owners = %q, %q", all[0].Client, all[1].Client)
	}
	if all[1].Budget != (Params{MaxPackets: 16}).PacketsFromCPULoad(80) {
		t.Errorf("budget = %d", all[1].Budget)
	}
	if all[1].Modality != "sketch" {
		t.Errorf("modality = %q (20kbps is under the sketch threshold)", all[1].Modality)
	}
	if !strings.Contains(all[1].State, "cpu-load=80") {
		t.Errorf("state = %q", all[1].State)
	}
	hasRule := func(fired []string, name string) bool {
		for _, f := range fired {
			if f == name {
				return true
			}
		}
		return false
	}
	if !hasRule(all[1].Fired, "cpu-load-budget") || !hasRule(all[1].Fired, "low-bandwidth-sketch") {
		t.Errorf("fired = %v", all[1].Fired)
	}

	// Client filter.
	only := Audits("wired-0", 0)
	if len(only) != 1 || only[0].Client != "wired-0" {
		t.Errorf("Audits(wired-0) = %+v", only)
	}
}

func TestDecideAuditDisabledByObsFlag(t *testing.T) {
	ResetAudits()
	obs.SetEnabled(false)
	e := New("silent", nil, clock.Wall)
	e.Decide(selector.Attributes{StateCPULoad: selector.N(50)})
	if got := Audits("", 0); len(got) != 0 {
		t.Errorf("disabled instrumentation recorded %d audits", len(got))
	}
}

func TestAuditRingOverwritesOldest(t *testing.T) {
	ResetAudits()
	t.Cleanup(ResetAudits)
	for i := 0; i < auditRingCap+10; i++ {
		recordAudit(AuditEntry{At: int64(i), Client: "c"})
	}
	all := Audits("", 0)
	if len(all) != auditRingCap {
		t.Fatalf("retained %d, want %d", len(all), auditRingCap)
	}
	if all[0].At != int64(auditRingCap+9) {
		t.Errorf("newest = %d", all[0].At)
	}
	if all[len(all)-1].At != 10 {
		t.Errorf("oldest retained = %d, want 10 (overwrite-oldest)", all[len(all)-1].At)
	}
	if got := Audits("", 3); len(got) != 3 || got[0].At != int64(auditRingCap+9) {
		t.Errorf("Audits(max=3) = %+v", got)
	}
}

func TestDebugDecisionsEndpoint(t *testing.T) {
	ResetAudits()
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		ResetAudits()
	})
	e := New("wired-0", nil, clock.Wall)
	e.Decide(selector.Attributes{StateCPULoad: selector.N(95)})

	h := obs.Handler(obs.Endpoint{Path: "/debug/decisions", Desc: "decision audit", Handler: http.HandlerFunc(ServeDecisions)})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/decisions", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "cpu-load-budget") || !strings.Contains(body, "wired-0") {
		t.Errorf("/debug/decisions = %q", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/decisions?client=nobody", nil))
	if body := rec.Body.String(); strings.Contains(body, "cpu-load-budget") {
		t.Errorf("client filter leaked: %q", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/decisions?max=zz", nil))
	if rec.Code != 400 {
		t.Errorf("bad ?max= should 400, got %d", rec.Code)
	}
}
