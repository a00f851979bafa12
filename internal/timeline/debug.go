package timeline

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// parseQuery maps the endpoint's URL parameters onto a Query.
func parseQuery(r *http.Request) Query {
	var q Query
	v := r.URL.Query()
	if s := v.Get("series"); s != "" {
		q.Series = strings.Split(s, ",")
	}
	if s := v.Get("contains"); s != "" {
		q.Contains = strings.Split(s, ",")
	}
	if s := v.Get("windows"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			q.MaxWindows = n
		}
	}
	return q
}

// ServeHTTP serves the timeline's curves as text (default), json,
// jsonl or csv: a program mounts it at /debug/timeline.
func (t *Timeline) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := parseQuery(r)
	switch r.URL.Query().Get("format") {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		series := t.Query(q)
		meta := t.exportMeta("")
		meta.Series = len(series)
		for _, sd := range series {
			if len(sd.Points) > meta.Windows {
				meta.Windows = len(sd.Points)
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(struct {
			Meta   Meta         `json:"meta"`
			Series []SeriesData `json:"series"`
		}{meta, series})
	case "jsonl":
		w.Header().Set("Content-Type", "application/jsonl")
		t.WriteJSONL(w, q)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		t.WriteCSV(w, q)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		t.WriteText(w, q)
	}
}
