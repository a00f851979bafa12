// Inference decision audit (DESIGN.md §11): every Decide call can be
// recorded — which rules fired, on what input attributes, and what the
// composed decision was — into a bounded overwrite-oldest ring,
// queryable at /debug/decisions and counted per rule as
// aqos_inference_rule_fired{rule="..."}.
//
// Rule-firing counters are always live (one atomic add per firing;
// New registers every rule's counter so /metrics shows each at zero).
// The audit ring only records when the obs instrumentation flag is on,
// keeping the disabled Decide path free of ring-buffer work and
// attribute formatting.
package inference

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"adaptiveqos/internal/selector"
)

// AuditEntry is one recorded inference decision.
type AuditEntry struct {
	// At is the decision instant (UnixNano).
	At int64
	// Client names the engine's owner (the client being decided for);
	// empty when the engine has no owner set.
	Client string
	// State renders the input attributes as sorted key=value pairs.
	State string
	// Fired lists the rules that fired, in firing order.
	Fired []string
	// Budget is the composed packet budget (Unlimited = -1).
	Budget int
	// Modality is the decided delivery modality ("" = keep source).
	Modality string
	// Satisfied and Violations summarize the contract evaluation.
	Satisfied  bool
	Violations []string
}

// auditRingCap bounds the process-global decision audit.  Adaptation
// cycles run on the order of once per second per client, so 512
// entries retain several minutes of decisions for a busy session
// (DESIGN.md §11 discusses the sizing).
const auditRingCap = 512

var auditRing = struct {
	mu      sync.Mutex
	entries [auditRingCap]AuditEntry
	next    uint64 // total records; next%cap is the write slot
}{}

func recordAudit(e AuditEntry) {
	auditRing.mu.Lock()
	auditRing.entries[auditRing.next%auditRingCap] = e
	auditRing.next++
	auditRing.mu.Unlock()
}

// Audits returns up to max recorded decisions, newest first, filtered
// to one client when client is non-empty (max <= 0 returns all
// retained).
func Audits(client string, max int) []AuditEntry {
	auditRing.mu.Lock()
	defer auditRing.mu.Unlock()
	n := auditRing.next
	retained := uint64(auditRingCap)
	if n < retained {
		retained = n
	}
	out := make([]AuditEntry, 0, retained)
	for i := uint64(1); i <= retained; i++ {
		e := auditRing.entries[(n-i)%auditRingCap]
		if client != "" && e.Client != client {
			continue
		}
		out = append(out, e)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// formatState renders attributes deterministically (sorted key=value).
func formatState(state selector.Attributes) string {
	if len(state) == 0 {
		return ""
	}
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(state[k].String())
	}
	return sb.String()
}

// WriteDecisions renders the audit (newest first) as text.
func WriteDecisions(w http.ResponseWriter, client string, max int) {
	entries := Audits(client, max)
	var sb strings.Builder
	fmt.Fprintf(&sb, "inference decision audit (%d shown", len(entries))
	if client != "" {
		fmt.Fprintf(&sb, ", client=%s", client)
	}
	sb.WriteString("); filter with ?client=<id>, bound with ?max=<n>\n\n")
	for _, e := range entries {
		t := time.Unix(0, e.At).UTC().Format("15:04:05.000")
		budget := fmt.Sprintf("%d", e.Budget)
		if e.Budget == Unlimited {
			budget = "unlimited"
		}
		modality := e.Modality
		if modality == "" {
			modality = "(keep)"
		}
		contract := "satisfied"
		if !e.Satisfied {
			contract = "violated:" + strings.Join(e.Violations, ",")
		}
		fired := strings.Join(e.Fired, ",")
		if fired == "" {
			fired = "(none)"
		}
		fmt.Fprintf(&sb, "%s client=%-10s budget=%-9s modality=%-8s %s\n    fired: %s\n    state: %s\n",
			t, e.Client, budget, modality, contract, fired, e.State)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, sb.String())
}

// ServeDecisions serves the audit as text: a program mounts it at
// /debug/decisions, where ?client=<id> filters and ?max=<n> bounds it.
func ServeDecisions(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	max := 64
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "inference: bad ?max=", http.StatusBadRequest)
			return
		}
		max = n
	}
	WriteDecisions(w, q.Get("client"), max)
}
