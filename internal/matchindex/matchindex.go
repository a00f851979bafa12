// Package matchindex implements an inverted predicate index over
// flattened client-profile attributes, making per-message selector
// matching cost proportional to the number of *matching* clients
// rather than the number of *registered* clients.
//
// The broker's native direction of matching is inverted with respect
// to classic content-based pub/sub: here the stored population is the
// client profiles (attribute sets) and each message carries the query
// (a selector).  The index therefore stores postings per profile
// attribute — equality buckets, per-kind presence sets and sorted
// numeric breakpoint lists — and answers a selector by decomposing it
// into conjunctive predicate branches (plan.go) and running a counting
// match: selective predicates enumerate their postings into per-client
// satisfied-predicate counters, clients reaching the required total
// become candidates, and the remaining (unselective or non-indexable)
// conjuncts are verified per candidate with the authoritative
// evaluator.  Results are exact by construction: anything the planner
// cannot decompose falls back to the brute-force evaluator.
//
// An Index covers the whole registry and keeps its own lock, so a
// match does not block the registry's snapshot reads.  Invalidation is
// lazy (see MarkDirty/Invalidate): mutations only record the client
// ID, and the next match drains the dirty set, re-reading each
// client's flattened view and skipping the rebuild when the profile
// generation counter is unchanged.
package matchindex

import (
	"sort"
	"sync"

	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/selector"
)

// Match-index counters: candidates scanned by the counting match,
// brute-force fallback evaluations, and client reindex events.
var (
	ctrCandidates = metrics.C(metrics.CtrMatchIndexCandidates)
	ctrFallback   = metrics.C(metrics.CtrMatchIndexFallback)
	ctrReindex    = metrics.C(metrics.CtrMatchIndexReindex)
)

// Lookup resolves a client's current flattened attribute view and its
// generation (profile version).  The registry's FlatSnapshot has this
// exact shape; the returned map is immutable by contract.
type Lookup func(id string) (selector.Attributes, uint64, bool)

// idSet is a set of client IDs.
type idSet map[string]struct{}

// numEntry is one numeric posting in an attribute's breakpoint list.
type numEntry struct {
	num float64
	id  string
}

// attrIndex holds the postings for one flattened attribute name.
type attrIndex struct {
	// eq buckets: value → clients holding exactly that value.
	eq map[selector.Value]idSet
	// kinds: value kind → clients holding a value of that kind (the
	// != complement universe).
	kinds map[selector.Kind]idSet
	// present: clients holding the attribute at all (exists()).
	present idSet
	// sorted is the numeric breakpoint list for range predicates,
	// rebuilt lazily from the eq buckets when sortStale.  NaN-valued
	// clients live in nans: Compare(NaN, x) reports 0, so they satisfy
	// <= and >= against every literal but never < or >.
	sorted    []numEntry
	sortStale bool
	nans      idSet
}

func newAttrIndex() *attrIndex {
	return &attrIndex{
		eq:      make(map[selector.Value]idSet),
		kinds:   make(map[selector.Kind]idSet),
		present: make(idSet),
	}
}

// posting records one (attr, value) pair a client contributed, so a
// reindex can remove exactly what it added.
type posting struct {
	attr string
	v    selector.Value
}

// clientEntry is the index's view of one client: the generation its
// postings reflect and the postings themselves.
type clientEntry struct {
	gen      uint64
	postings []posting
}

// Index indexes the registry's clients.  All methods are safe for
// concurrent use; Match synchronizes with the mutation methods through
// the index mutex, so a match observes every invalidation that
// completed before it began.
type Index struct {
	mu      sync.Mutex
	clients map[string]*clientEntry
	attrs   map[string]*attrIndex
	dirty   idSet

	// counts is the counting-match scratch (client → satisfied
	// predicates); seen dedupes candidates across branches; sizes,
	// counted and verified are one branch's predicate split.  All are
	// reused across matches under mu.
	counts            map[string]int
	seen              idSet
	sizes             []int
	counted, verified []*pred
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		clients: make(map[string]*clientEntry),
		attrs:   make(map[string]*attrIndex),
		dirty:   make(idSet),
		counts:  make(map[string]int),
		seen:    make(idSet),
	}
}

// MarkDirty records that id's profile may have changed; the next match
// re-reads its flattened view and reindexes only if the generation
// counter moved.
func (ix *Index) MarkDirty(id string) {
	ix.mu.Lock()
	ix.dirty[id] = struct{}{}
	ix.mu.Unlock()
}

// Invalidate drops id's postings immediately and marks it dirty, for
// mutations the generation counter cannot vouch for: a wholesale
// profile Put may install different attributes under an unchanged
// version (the registry's Put replaces the entry, it does not bump),
// and a Remove must not leave postings behind.
func (ix *Index) Invalidate(id string) {
	ix.mu.Lock()
	if e, ok := ix.clients[id]; ok {
		ix.removeLocked(id, e)
	}
	ix.dirty[id] = struct{}{}
	ix.mu.Unlock()
}

func (ix *Index) removeLocked(id string, e *clientEntry) {
	for _, po := range e.postings {
		a := ix.attrs[po.attr]
		if a == nil {
			continue
		}
		if b := a.eq[po.v]; b != nil {
			delete(b, id)
			if len(b) == 0 {
				delete(a.eq, po.v)
			}
		}
		if k := a.kinds[po.v.Kind()]; k != nil {
			delete(k, id)
			if len(k) == 0 {
				delete(a.kinds, po.v.Kind())
			}
		}
		delete(a.present, id)
		if po.v.Kind() == selector.KindNumber {
			if nanValue(po.v) {
				delete(a.nans, id)
			} else {
				a.sortStale = true
			}
		}
	}
	delete(ix.clients, id)
}

func (ix *Index) indexLocked(id string, flat selector.Attributes, gen uint64) {
	e := &clientEntry{gen: gen, postings: make([]posting, 0, len(flat))}
	for attr, v := range flat {
		a := ix.attrs[attr]
		if a == nil {
			a = newAttrIndex()
			ix.attrs[attr] = a
		}
		b := a.eq[v]
		if b == nil {
			b = make(idSet)
			a.eq[v] = b
		}
		b[id] = struct{}{}
		k := a.kinds[v.Kind()]
		if k == nil {
			k = make(idSet)
			a.kinds[v.Kind()] = k
		}
		k[id] = struct{}{}
		a.present[id] = struct{}{}
		if v.Kind() == selector.KindNumber {
			if nanValue(v) {
				if a.nans == nil {
					a.nans = make(idSet)
				}
				a.nans[id] = struct{}{}
			} else {
				a.sortStale = true
			}
		}
		e.postings = append(e.postings, posting{attr: attr, v: v})
	}
	ix.clients[id] = e
}

// syncLocked drains the dirty set: departed clients lose their
// postings, clients whose generation moved are reindexed, and clients
// whose flattened view is unchanged cost one map lookup.
func (ix *Index) syncLocked(lookup Lookup) {
	if len(ix.dirty) == 0 {
		return
	}
	for id := range ix.dirty {
		e := ix.clients[id]
		flat, gen, ok := lookup(id)
		if !ok {
			if e != nil {
				ix.removeLocked(id, e)
			}
			continue
		}
		if e != nil && e.gen == gen {
			continue
		}
		if e != nil {
			ix.removeLocked(id, e)
		}
		ix.indexLocked(id, flat, gen)
		ctrReindex.Inc()
	}
	clear(ix.dirty)
}

// freshSorted returns attr's numeric breakpoint list, rebuilding it
// from the equality buckets if a numeric posting changed since the
// last range query (lazy re-sort: churn batches amortize to one sort).
func (a *attrIndex) freshSorted() []numEntry {
	if !a.sortStale {
		return a.sorted
	}
	a.sorted = a.sorted[:0]
	for v, b := range a.eq {
		if v.Kind() != selector.KindNumber || nanValue(v) {
			continue
		}
		for id := range b {
			a.sorted = append(a.sorted, numEntry{num: v.Num(), id: id})
		}
	}
	sort.Slice(a.sorted, func(i, j int) bool { return a.sorted[i].num < a.sorted[j].num })
	a.sortStale = false
	return a.sorted
}

// rangeBounds returns the [lo, hi) window of the sorted breakpoint
// list satisfying `x op lit`, and whether NaN-valued clients satisfy
// the operator (Compare(NaN, lit) = 0, so <= and >= admit them).
func rangeBounds(sorted []numEntry, op selector.Op, lit float64) (lo, hi int, incNaN bool) {
	switch op {
	case selector.OpLt:
		return 0, sort.Search(len(sorted), func(i int) bool { return sorted[i].num >= lit }), false
	case selector.OpLe:
		return 0, sort.Search(len(sorted), func(i int) bool { return sorted[i].num > lit }), true
	case selector.OpGt:
		return sort.Search(len(sorted), func(i int) bool { return sorted[i].num > lit }), len(sorted), false
	default: // OpGe
		return sort.Search(len(sorted), func(i int) bool { return sorted[i].num >= lit }), len(sorted), true
	}
}

// estimate returns an upper bound on the predicate's posting count,
// used to pick which predicates enumerate and which verify.
func (ix *Index) estimate(p *pred) int {
	a := ix.attrs[p.attr]
	if a == nil {
		return 0
	}
	switch p.kind {
	case predEq:
		return len(a.eq[p.lit])
	case predNe:
		return len(a.kinds[p.lit.Kind()])
	case predExists:
		return len(a.present)
	case predIn:
		n := 0
		for _, v := range p.list {
			n += len(a.eq[v])
		}
		return n
	default: // predRange
		lo, hi, incNaN := rangeBounds(a.freshSorted(), p.op, p.lit.Num())
		n := hi - lo
		if incNaN {
			n += len(a.nans)
		}
		return n
	}
}

// enumerate yields every client satisfying the predicate.
func (ix *Index) enumerate(p *pred, yield func(id string)) {
	a := ix.attrs[p.attr]
	if a == nil {
		return
	}
	switch p.kind {
	case predEq:
		for id := range a.eq[p.lit] {
			yield(id)
		}
	case predNe:
		same := a.eq[p.lit]
		for id := range a.kinds[p.lit.Kind()] {
			if _, eq := same[id]; !eq {
				yield(id)
			}
		}
	case predExists:
		for id := range a.present {
			yield(id)
		}
	case predIn:
		// List values are deduplicated at plan time and a client holds
		// one value per attribute, so the buckets are disjoint.
		for _, v := range p.list {
			for id := range a.eq[v] {
				yield(id)
			}
		}
	default: // predRange
		sorted := a.freshSorted()
		lo, hi, incNaN := rangeBounds(sorted, p.op, p.lit.Num())
		for i := lo; i < hi; i++ {
			yield(sorted[i].id)
		}
		if incNaN {
			for id := range a.nans {
				yield(id)
			}
		}
	}
}

// verifyThreshold bounds which predicates join the counting
// enumeration: a predicate whose posting estimate exceeds
// pivot*verifyFactor+verifySlack is verified per candidate instead —
// enumerating a barely-selective predicate (say `media == "video"`
// over a quarter of the population) would cost O(population) and
// defeat the index, while a per-candidate check costs one map lookup.
const (
	verifyFactor = 8
	verifySlack  = 16
)

// Match appends to dst the IDs of every indexed client matching
// the plan, deduplicated across branches, after draining the dirty
// set.  The plan must be Indexable (MatchAll and FullScan are the
// caller's cases — they need the registry's full population, which the
// index does not own).
func (ix *Index) Match(p *Plan, lookup Lookup, dst []string) []string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.syncLocked(lookup)
	if len(ix.clients) == 0 {
		return dst
	}
	clear(ix.seen)
	var candidates, fallbacks uint64
	for bi := range p.Branches {
		br := &p.Branches[bi]

		// Split the conjuncts: the most selective predicates enumerate
		// their postings into the counting match, the rest verify.
		pivot := -1
		sizes := ix.sizes[:0]
		for i := range br.preds {
			sizes = append(sizes, ix.estimate(&br.preds[i]))
			if pivot < 0 || sizes[i] < sizes[pivot] {
				pivot = i
			}
		}
		ix.sizes = sizes
		if sizes[pivot] == 0 {
			continue // some conjunct has no satisfying client
		}
		bound := sizes[pivot]*verifyFactor + verifySlack
		counted, verified := ix.counted[:0], ix.verified[:0]
		for i := range br.preds {
			if i == pivot || sizes[i] <= bound {
				counted = append(counted, &br.preds[i])
			} else {
				verified = append(verified, &br.preds[i])
			}
		}
		ix.counted, ix.verified = counted, verified

		emit := func(id string) {
			if _, dup := ix.seen[id]; dup {
				return
			}
			candidates++
			if len(verified) > 0 || len(br.residue) > 0 {
				flat, _, ok := lookup(id)
				if !ok {
					return
				}
				for _, vp := range verified {
					if !vp.src.Eval(flat) {
						return
					}
				}
				for _, r := range br.residue {
					fallbacks++
					if !r.Eval(flat) {
						return
					}
				}
			}
			ix.seen[id] = struct{}{}
			dst = append(dst, id)
		}

		if len(counted) == 1 {
			ix.enumerate(counted[0], emit)
			continue
		}
		clear(ix.counts)
		for _, cp := range counted {
			ix.enumerate(cp, func(id string) { ix.counts[id]++ })
		}
		need := len(counted)
		for id, n := range ix.counts {
			if n == need {
				emit(id)
			}
		}
	}
	ctrCandidates.Add(candidates)
	ctrFallback.Add(fallbacks)
	return dst
}
