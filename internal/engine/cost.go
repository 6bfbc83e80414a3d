package engine

import (
	"strconv"

	dt "pi2/internal/difftree"
)

// The cost-based access-path chooser. compilePipe collects index *candidates*
// from the pushed-down conjuncts; chooseAccess judges them against the
// table's statistics and picks at most one per source.
//
// Two invariants keep this layer incapable of changing results:
//
//   - a chosen index only narrows the candidate row set fed to the scan's
//     predicate loop — every pushed conjunct (including the one the index
//     serves) still evaluates over the candidates, so the index must merely
//     produce a superset of the matching rows in ascending row order;
//   - eligibility (accessEstimate) is a semantic judgment, not a cost one:
//     NaN columns and mixed-type range probes are rejected even under
//     forced-index mode, because there the sweep and the index disagree.

// Cost model knobs. The constants are deliberately coarse: the point is to
// avoid indexing tables where a sweep is already cheap.
const (
	minIndexRows   = 64 // below this a sweep beats probe + order bookkeeping
	indexAdvantage = 4  // index must beat the sweep by this factor
)

type accessMode uint8

const (
	accessFull accessMode = iota
	accessEq
	accessRange
)

// scanAccess is the chosen (or candidate) access path for one source.
type scanAccess struct {
	mode           accessMode
	col            int    // column index in the base table
	colName        string // lowercased, for EXPLAIN and profiles
	eqKey          Value  // accessEq probe key
	lo, hi         Value  // accessRange bounds
	hasLo, hasHi   bool
	loExcl, hiExcl bool
	estRows        int // statistics estimate, for EXPLAIN
}

// path renders the access path the way EXPLAIN and Profile report it.
func (a scanAccess) path() string {
	switch a.mode {
	case accessEq:
		return "index-scan(" + a.colName + ")"
	case accessRange:
		return "range-scan(" + a.colName + ")"
	default:
		return "full-scan"
	}
}

// litValue evaluates a plan-time literal. NaN literals cannot be written in
// the grammar, but reject them defensively: NaN keys poison both index kinds.
func litValue(e *dt.Node) (Value, bool) {
	switch e.Kind {
	case dt.KindNumber:
		f, err := strconv.ParseFloat(e.Label, 64)
		if err != nil || f != f {
			return Value{}, false
		}
		return NumVal(f), true
	case dt.KindString:
		return StrVal(e.Label), true
	}
	return Value{}, false
}

// indexCandidate recognizes a pushed-down conjunct an index could serve:
// `col op literal` (either operand order; op in =,<,>,<=,>=) or
// `col BETWEEN literal AND literal`, where col is a bare reference to source
// fi's base table. Derived tables never qualify — their rows are rebuilt per
// execution, so there is nothing durable to index.
func (c *compiler) indexCandidate(pq *planQuery, fi int, e *dt.Node) (scanAccess, bool) {
	if pq.sources[fi].table == nil {
		return scanAccess{}, false
	}
	ident := func(n *dt.Node) (int, bool) {
		if n.Kind != dt.KindIdent {
			return 0, false
		}
		f, ci, ok := c.localColumn(n.Label)
		if !ok || f != fi {
			return 0, false
		}
		return ci, true
	}
	switch e.Kind {
	case dt.KindBinary:
		if len(e.Children) != 2 {
			return scanAccess{}, false
		}
		op := e.Label
		ci, okCol := ident(e.Children[0])
		lit, okLit := litValue(e.Children[1])
		if !okCol || !okLit {
			ci, okCol = ident(e.Children[1])
			lit, okLit = litValue(e.Children[0])
			if !okCol || !okLit {
				return scanAccess{}, false
			}
			// literal op col reads as col (flipped op) literal
			switch op {
			case "<":
				op = ">"
			case ">":
				op = "<"
			case "<=":
				op = ">="
			case ">=":
				op = "<="
			}
		}
		a := scanAccess{col: ci, colName: pq.sources[fi].cols[ci]}
		switch op {
		case "=":
			a.mode, a.eqKey = accessEq, lit
		case "<":
			a.mode, a.hi, a.hasHi, a.hiExcl = accessRange, lit, true, true
		case "<=":
			a.mode, a.hi, a.hasHi = accessRange, lit, true
		case ">":
			a.mode, a.lo, a.hasLo, a.loExcl = accessRange, lit, true, true
		case ">=":
			a.mode, a.lo, a.hasLo = accessRange, lit, true
		default:
			return scanAccess{}, false
		}
		return a, true
	case dt.KindBetween:
		if len(e.Children) != 3 {
			return scanAccess{}, false
		}
		ci, okCol := ident(e.Children[0])
		lo, okLo := litValue(e.Children[1])
		hi, okHi := litValue(e.Children[2])
		if !okCol || !okLo || !okHi {
			return scanAccess{}, false
		}
		return scanAccess{
			mode: accessRange, col: ci, colName: pq.sources[fi].cols[ci],
			lo: lo, hasLo: true, hi: hi, hasHi: true,
		}, true
	}
	return scanAccess{}, false
}

// accessEstimate judges a candidate against the table's statistics. eligible
// reports whether the index agrees with the sweep semantics at all — false
// is binding even under forced-index mode. est is the predicted surviving
// row count under the usual uniformity assumptions.
func accessEstimate(st *TableStats, a scanAccess) (est int, eligible bool) {
	if a.col >= len(st.Cols) {
		return 0, false
	}
	cs := st.Cols[a.col]
	if cs.HasNaN {
		// Compare treats NaN as equal to every number, so under the sweep a
		// NaN row matches every numeric comparison — no index reproduces that.
		return 0, false
	}
	nonNull := st.Rows - cs.Nulls
	switch a.mode {
	case accessEq:
		if cs.NDV == 0 {
			return 0, true
		}
		est = nonNull / cs.NDV
		if est < 1 {
			est = 1
		}
		return est, true
	case accessRange:
		// Binary search needs Compare to be a total order along the sorted
		// run: only true for type-homogeneous columns, and only for bounds
		// of the column's own type (text order is not numeric order).
		if !cs.Homogeneous() {
			return 0, false
		}
		if nonNull == 0 {
			return 0, true
		}
		isStr := cs.Strs > 0
		if (a.hasLo && a.lo.IsStr != isStr) || (a.hasHi && a.hi.IsStr != isStr) {
			return 0, false
		}
		return rangeEstimate(cs, nonNull, a), true
	}
	return st.Rows, true
}

// rangeEstimate interpolates a numeric range against the column's [min,max]
// span; string ranges fall back to a fixed 1/3 selectivity.
func rangeEstimate(cs ColStats, nonNull int, a scanAccess) int {
	if cs.Min.IsStr {
		return (nonNull + 2) / 3
	}
	mn, mx := cs.Min.Num, cs.Max.Num
	lo, hi := mn, mx
	if a.hasLo {
		lo = a.lo.Num
	}
	if a.hasHi {
		hi = a.hi.Num
	}
	if lo < mn {
		lo = mn
	}
	if hi > mx {
		hi = mx
	}
	if lo > hi {
		return 0
	}
	span := mx - mn
	if span <= 0 {
		return nonNull
	}
	est := int((hi - lo) / span * float64(nonNull))
	if est < 1 {
		est = 1
	}
	return est
}

// chooseAccess picks at most one eligible candidate per source — the one
// with the smallest estimate — and installs it when it beats a sweep by
// indexAdvantage on a table of at least minIndexRows. Forced mode skips the
// cost threshold but never the eligibility judgment.
func (c *compiler) chooseAccess(pq *planQuery, cands [][]scanAccess) {
	for i, list := range cands {
		if len(list) == 0 {
			continue
		}
		st := c.db.tableStats(pq.sources[i].table)
		best, bestEst := -1, 0
		for k := range list {
			est, ok := accessEstimate(st, list[k])
			if !ok {
				continue
			}
			if best < 0 || est < bestEst {
				best, bestEst = k, est
			}
		}
		if best < 0 {
			continue
		}
		if !c.force && (st.Rows < minIndexRows || bestEst*indexAdvantage > st.Rows) {
			continue
		}
		a := list[best]
		a.estRows = bestEst
		pq.pipe.access[i] = a
	}
}

// buildReusable reports whether pipeline level i's hash build can be served
// by the DB's per-column hash index: a single bare-column key over an
// unfiltered base table, where the index's buckets are bit-identical to what
// buildHashSide would produce.
func (pq *planQuery) buildReusable(i int) bool {
	return pq.sources[i].sub == nil &&
		pq.pipe.steps[i].buildCol >= 0 &&
		len(pq.pipe.scanPreds[i]) == 0 &&
		pq.pipe.access[i].mode == accessFull
}
