package obs

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"adaptiveqos/internal/metrics"
)

// metricPrefix namespaces every exposed metric.
const metricPrefix = "aqos_"

// sanitizeName maps an internal metric name to the exposition
// charset: the name part becomes [a-zA-Z0-9_:], a {label="..."}
// suffix is preserved verbatim.
func sanitizeName(name string) string {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i:]
	}
	var sb strings.Builder
	sb.Grow(len(metricPrefix) + len(name))
	sb.WriteString(metricPrefix)
	for i := 0; i < len(base); i++ {
		c := base[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == ':':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	sb.WriteString(labels)
	return sb.String()
}

// withLabel merges an extra label into a (possibly labeled) exposed
// metric name: withLabel(`h{stage="x"}`, `le`, `4096`) →
// `h{stage="x",le="4096"}`.
func withLabel(name, key, value string) string {
	label := key + `="` + value + `"`
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// suffixed appends a histogram-series suffix to the base part of a
// possibly-labeled name, keeping the label block last as the
// exposition format requires: suffixed(`h{stage="x"}`, "_count") →
// `h_count{stage="x"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// family strips the label block: the TYPE comment names the bare
// metric family, emitted once however many label sets it carries.
func family(name string) string {
	fam, _, _ := strings.Cut(name, "{")
	return fam
}

// WriteMetrics renders every registered counter, gauge and histogram
// (internal/metrics) in Prometheus text exposition format, in name
// order.
func WriteMetrics(w io.Writer) error {
	var sb strings.Builder
	typed := make(map[string]bool)
	declare := func(exp, kind string) {
		if fam := family(exp); !typed[fam] {
			typed[fam] = true
			fmt.Fprintf(&sb, "# TYPE %s %s\n", fam, kind)
		}
	}
	metrics.Each(func(name string, m any) {
		exp := sanitizeName(name)
		switch m := m.(type) {
		case *metrics.Counter:
			declare(exp, "counter")
			fmt.Fprintf(&sb, "%s %d\n", exp, m.Load())
		case *metrics.Gauge:
			declare(exp, "gauge")
			fmt.Fprintf(&sb, "%s %g\n", exp, m.Load())
		case *metrics.Histogram:
			declare(exp, "histogram")
			s := m.Snapshot()
			bucket := suffixed(exp, "_bucket")
			// Occupied finite buckets, cumulatively; the last bucket is
			// unbounded, so it is the +Inf sample, written once.
			last := len(s.Buckets) - 1
			var cum uint64
			for i, c := range s.Buckets[:last] {
				if c == 0 {
					continue
				}
				cum += c
				le := strconv.FormatUint(metrics.BucketUpper(i), 10)
				fmt.Fprintf(&sb, "%s %d\n", withLabel(bucket, "le", le), cum)
			}
			fmt.Fprintf(&sb, "%s %d\n%s %d\n%s %d\n", withLabel(bucket, "le", "+Inf"), s.Count,
				suffixed(exp, "_sum"), s.Sum, suffixed(exp, "_count"), s.Count)
		}
	})
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteQoSDebug renders the human-oriented dump: enabled state, a
// per-stage latency quantile table, every gauge, and the most recent
// trace events.
func WriteQoSDebug(w io.Writer, maxEvents int) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "instrumentation enabled: %v\n\n", Enabled())

	fmt.Fprintf(&sb, "pipeline stage latency (ns):\n")
	fmt.Fprintf(&sb, "%-10s %10s %12s %12s %12s %12s\n",
		"stage", "count", "mean", "p50", "p90", "p99")
	for _, st := range Stages() {
		s := StageHistogram(st).Snapshot()
		fmt.Fprintf(&sb, "%-10s %10d %12.0f %12.0f %12.0f %12.0f\n",
			st, s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99))
	}

	var gauges, counters strings.Builder
	metrics.Each(func(name string, m any) {
		switch m := m.(type) {
		case *metrics.Gauge:
			fmt.Fprintf(&gauges, "  %-48s %g\n", name, m.Load())
		case *metrics.Counter:
			fmt.Fprintf(&counters, "  %-48s %d\n", name, m.Load())
		}
	})
	if gauges.Len() > 0 {
		fmt.Fprintf(&sb, "\nqos gauges:\n%s", gauges.String())
	}
	if counters.Len() > 0 {
		fmt.Fprintf(&sb, "\ncounters:\n%s", counters.String())
	}

	evs := Events(maxEvents)
	if len(evs) > 0 {
		fmt.Fprintf(&sb, "\nrecent trace events (%d):\n", len(evs))
		for _, ev := range evs {
			t := time.Unix(0, ev.At).Format("15:04:05.000000")
			fmt.Fprintf(&sb, "  %s %-5s %-10s msg=%016x", t, ev.Kind, ev.Stage, ev.MsgID)
			if ev.NS > 0 {
				fmt.Fprintf(&sb, " %dns", ev.NS)
			}
			if ev.Detail != "" {
				fmt.Fprintf(&sb, " %s", ev.Detail)
			}
			sb.WriteByte('\n')
		}
	}

	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteTimeline renders one trace's merged per-hop timeline.
func WriteTimeline(w io.Writer, id uint64) error {
	hops, ok := Timeline(id)
	if !ok || len(hops) == 0 {
		_, err := fmt.Fprintf(w, "trace %016x: not retained\n", id)
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %016x (%d hops, %dµs publish-to-last):\n",
		id, len(hops), hops[len(hops)-1].DeltaUS-hops[0].DeltaUS)
	for _, h := range hops {
		fmt.Fprintf(&sb, "  %+10dµs  %-16s %s\n", h.DeltaUS, h.Node, h.Stage)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteTraceIndex lists retained traces, newest first.
func WriteTraceIndex(w io.Writer, max int) error {
	sums := TraceSummaries(max)
	var sb strings.Builder
	fmt.Fprintf(&sb, "flight recorder enabled: %v, retained traces: %d\n", TraceEnabled(), len(sums))
	fmt.Fprintf(&sb, "query one with ?msg=<16-hex trace id> or ?sender=<id>&seq=<n>\n\n")
	for _, s := range sums {
		fmt.Fprintf(&sb, "  %016x  hops=%-3d span=%-8dµs %s/%s → %s/%s\n",
			s.ID, s.Hops, s.SpanUS, s.First.Node, s.First.Stage, s.Last.Node, s.Last.Stage)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// An Endpoint is one debug page a program mounts beside the built-in
// ones: its path, its line on the /debug index and its handler.
type Endpoint struct {
	Path, Desc string
	Handler    http.Handler
}

// Handler serves /metrics, /debug/qos (?events=N bounds the event tail,
// default 64), /debug/trace (?msg=<hex id> or ?sender=&seq=),
// /debug/pprof/ and the extra endpoints the program passes.  The /debug
// index lists exactly what is mounted, any other path answers 404, and
// a path mounted twice panics.
func Handler(extra ...Endpoint) http.Handler {
	endpoints := append([]Endpoint{
		{"/metrics", "Prometheus text exposition (counters, gauges, histograms)", http.HandlerFunc(serveMetrics)},
		{"/debug/qos", "human QoS dump: stage latency quantiles, gauges, trace events", http.HandlerFunc(serveQoS)},
		{"/debug/trace", "flight-recorder timelines (?msg=<hex id> or ?sender=&seq=)", http.HandlerFunc(serveTrace)},
		{"/debug/pprof/", "net/http/pprof profiling suite", http.HandlerFunc(pprof.Index)},
	}, extra...)
	mux := http.NewServeMux()
	var sb strings.Builder
	sb.WriteString("adaptiveqos observability endpoints:\n\n")
	for _, e := range endpoints {
		mux.Handle(e.Path, e.Handler)
		fmt.Fprintf(&sb, "  %-18s %s\n", e.Path, e.Desc)
	}
	index := sb.String()
	serveIndex := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, index)
	}
	mux.HandleFunc("/{$}", serveIndex)
	mux.HandleFunc("/debug", serveIndex)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	SampleRuntime(metrics.SetGauge)
	WriteMetrics(w)
}

func serveQoS(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	maxEvents := 64
	if n, err := parsePositive(r.URL.Query().Get("events")); err == nil {
		maxEvents = n
	}
	WriteQoSDebug(w, maxEvents)
}

func serveTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	q := r.URL.Query()
	if sender := q.Get("sender"); sender != "" {
		seq, err := strconv.ParseUint(q.Get("seq"), 10, 32)
		if err != nil {
			http.Error(w, "obs: ?sender= needs a numeric ?seq=", http.StatusBadRequest)
			return
		}
		WriteTimeline(w, MsgID(sender, uint32(seq)))
		return
	}
	if msg := q.Get("msg"); msg != "" {
		id, err := strconv.ParseUint(msg, 16, 64)
		if err != nil {
			http.Error(w, "obs: ?msg= wants the hex trace id", http.StatusBadRequest)
			return
		}
		WriteTimeline(w, id)
		return
	}
	max := 64
	if n, err := parsePositive(q.Get("max")); err == nil {
		max = n
	}
	WriteTraceIndex(w, max)
}

// Server is a running exposition endpoint.  Close drains in-flight
// scrapes gracefully (bounded by shutdownGrace) before tearing the
// listener down.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// serveReadHeaderTimeout keeps a slow-header (Slowloris) client from
// pinning a goroutine and a socket; shutdownGrace bounds how long Close
// waits for in-flight scrapes.
const (
	serveReadHeaderTimeout = 5 * time.Second
	shutdownGrace          = 2 * time.Second
)

// Close shuts the endpoint down gracefully: the listener stops
// accepting, in-flight responses get shutdownGrace to complete, then
// remaining connections are torn down.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// Serve starts Handler(extra...) on addr in a background goroutine and
// returns the running server, which the caller closes.
func Serve(addr string, extra ...Endpoint) (*Server, error) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           Handler(extra...),
		ReadHeaderTimeout: serveReadHeaderTimeout,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	return &Server{srv: srv, ln: ln}, nil
}

// parsePositive parses a query count: decimal digits, at most 1<<20.
func parsePositive(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || s[0] < '0' || n > 1<<20 {
		return 0, fmt.Errorf("obs: bad count %q", s)
	}
	return n, nil
}
