package matchindex

import (
	"math"

	"adaptiveqos/internal/selector"
)

// predKind classifies how a conjunct is answered by the inverted index.
type predKind uint8

const (
	// predEq is `attr == lit`: one equality-bucket lookup.
	predEq predKind = iota
	// predNe is `attr != lit`: the attr's same-kind presence set minus
	// the lit's equality bucket (Eval's "present with a different value
	// of the same kind" semantics).
	predNe
	// predRange is `attr </<=/>/>= lit` with a numeric literal: a
	// boundary search over the attr's sorted breakpoint list.
	predRange
	// predIn is `attr in [lits]`: the union of the equality buckets.
	predIn
	// predExists is `exists(attr)`: the attr's presence set.
	predExists
)

// pred is one indexable conjunct of a branch.  src retains the original
// expression so candidates drawn from other predicates can be verified
// with the authoritative evaluator instead of a posting enumeration.
type pred struct {
	kind predKind
	attr string
	op   selector.Op
	lit  selector.Value
	list []selector.Value // predIn, deduplicated
	src  selector.Expr
}

// branch is one disjunct of a plan: a conjunction of indexable
// predicates plus a residue of conjuncts the index cannot answer
// (like/not/nested or), evaluated per candidate.
type branch struct {
	preds   []pred
	residue []selector.Expr
}

// Plan is the index-execution form of a compiled selector: a union of
// conjunctive branches.  The planner is exact-by-construction — any
// shape it cannot decompose degrades to FullScan (the brute-force
// evaluator over every client) rather than approximating.
type Plan struct {
	// MatchAll: some branch is constantly true; every client matches.
	MatchAll bool
	// FullScan: some branch has no indexable predicate at all (pure
	// residue, e.g. a top-level not or like).  The whole selector falls
	// back to one brute-force evaluation per client: the scan must
	// visit everyone anyway, and evaluating the original expression
	// once beats branch-by-branch evaluation.
	FullScan bool
	// Branches are the indexable disjuncts (constant-false branches are
	// dropped during planning).
	Branches []branch
}

// Indexable reports whether the plan answers through the index (as
// opposed to matching everyone or scanning everyone).
func (p *Plan) Indexable() bool { return !p.MatchAll && !p.FullScan && len(p.Branches) > 0 }

// PlanSelector returns the index plan of a compiled selector, made on
// the first call and kept on the selector (selector.Memo): a selector
// compiled once per distinct source, as the compile cache does, is
// planned once too.
func PlanSelector(sel *selector.Selector) *Plan {
	return sel.Memo(planExpr).(*Plan)
}

// planExpr compiles an expression tree into an index plan.
func planExpr(e selector.Expr) any {
	p := &Plan{}
	for _, be := range flattenOr(e, nil) {
		br, always, never := planBranch(be)
		switch {
		case never:
			// Constant-false disjunct: contributes nothing.
		case always:
			p.MatchAll = true
		case len(br.preds) == 0:
			// Residue-only branch: nothing for the index to pivot on.
			p.FullScan = true
		default:
			p.Branches = append(p.Branches, br)
		}
	}
	return p
}

// flattenOr appends the disjuncts of e's top-level or-tree to dst.
func flattenOr(e selector.Expr, dst []selector.Expr) []selector.Expr {
	if or, ok := e.(*selector.Or); ok {
		return flattenOr(or.Y, flattenOr(or.X, dst))
	}
	return append(dst, e)
}

// flattenAnd appends the conjuncts of e's top-level and-tree to dst.
func flattenAnd(e selector.Expr, dst []selector.Expr) []selector.Expr {
	if and, ok := e.(*selector.And); ok {
		return flattenAnd(and.Y, flattenAnd(and.X, dst))
	}
	return append(dst, e)
}

// planBranch decomposes one disjunct into indexable predicates plus
// residue.  always/never report constant outcomes (a `true` conjunct is
// dropped; a `false` or never-satisfiable conjunct kills the branch).
func planBranch(e selector.Expr) (br branch, always, never bool) {
	for _, c := range flattenAnd(e, nil) {
		switch x := c.(type) {
		case *selector.BoolLit:
			if !x.Val {
				return branch{}, false, true
			}
			// `true` conjunct: no constraint.
		case *selector.Cmp:
			switch {
			case nanValue(x.Lit):
				// Equal(NaN, NaN) is true but NaN never equals itself
				// as a bucket key; keep the evaluator authoritative.
				br.residue = append(br.residue, c)
			case x.Op == selector.OpEq:
				br.preds = append(br.preds, pred{kind: predEq, attr: x.Attr, lit: x.Lit, src: c})
			case x.Op == selector.OpNe:
				br.preds = append(br.preds, pred{kind: predNe, attr: x.Attr, lit: x.Lit, src: c})
			case x.Lit.Kind() == selector.KindNumber:
				br.preds = append(br.preds, pred{kind: predRange, attr: x.Attr, op: x.Op, lit: x.Lit, src: c})
			case x.Lit.Kind() == selector.KindString:
				// Ordered string comparison: rare enough that a sorted
				// string breakpoint list is not worth its upkeep.
				br.residue = append(br.residue, c)
			default:
				// Ordering a bool (or invalid) literal: Compare always
				// errors, so the conjunct is constantly false.
				return branch{}, false, true
			}
		case *selector.In:
			list, hasNaN := dedupValues(x.List)
			if hasNaN {
				br.residue = append(br.residue, c)
				break
			}
			if len(list) == 0 {
				return branch{}, false, true
			}
			br.preds = append(br.preds, pred{kind: predIn, attr: x.Attr, list: list, src: c})
		case *selector.Exists:
			br.preds = append(br.preds, pred{kind: predExists, attr: x.Attr, src: c})
		default:
			// *Like, *Not, nested *Or, future node types: the index has
			// no posting shape for them; verify per candidate.
			br.residue = append(br.residue, c)
		}
	}
	if len(br.preds) == 0 && len(br.residue) == 0 {
		return branch{}, true, false
	}
	return br, false, false
}

// nanValue reports whether v is a NaN numeric literal.
func nanValue(v selector.Value) bool {
	return v.Kind() == selector.KindNumber && math.IsNaN(v.Num())
}

// dedupValues drops duplicate list members (a client holds one value
// per attribute, so duplicates would double-count in a counting match)
// and reports whether any member is NaN.
func dedupValues(list []selector.Value) (out []selector.Value, hasNaN bool) {
	out = make([]selector.Value, 0, len(list))
	for _, v := range list {
		if nanValue(v) {
			return nil, true
		}
		dup := false
		for _, u := range out {
			if u.Equal(v) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out, false
}
