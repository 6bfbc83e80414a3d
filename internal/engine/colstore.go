package engine

import (
	"math"
	"time"
)

// Columnar storage: the per-table column arrays behind the vectorized
// execution path (vec.go / vecexec.go). Like the hash and sorted indexes
// (index.go), column arrays are built lazily on first use and cached on the
// DB's snapshot-keyed access cache — a write (Add/Append) publishes a new
// table snapshot and prunes only that table's entry, so a live Plan can
// never observe stale column data for the same reason it can never observe
// a stale table pointer, and a write to one table leaves every other
// table's columnar image warm.
//
// Layout: one colData per column, holding parallel num/str slices plus two
// bitmaps (NULL, is-string). A cell is reconstructed bit-identically to the
// row-store Value it came from; build verifies that every cell is in the
// canonical Value encoding (NullVal/NumVal/StrVal shapes) and that no row is
// shorter than the schema — tables violating either are marked ineligible
// and the planner keeps them on the row path, where the original semantics
// (including the interpreter's panic on ragged direct access) are preserved.

// batchSize is the fixed vectorized batch width: operators walk selections
// in chunks of this many rows, which keeps the working set cache-resident
// and gives the rows-per-batch histogram its natural bucket ceiling.
const batchSize = 1024

// colData is one table column in columnar form.
type colData struct {
	nums  []float64 // numeric cells (zero elsewhere)
	strs  []string  // string cells (empty elsewhere); nil if the column has none
	null  []uint64  // bitmap: cell is NULL
	isStr []uint64  // bitmap: cell is a non-null string

	numCells int  // non-null numeric cells
	strCells int  // non-null string cells
	hasNaN   bool // any numeric cell is NaN

	// Small-integer profile, filled during build: allInt means every non-null
	// numeric cell is a finite integral float64 that is not -0 (so raw-bits
	// group identity — ±0 distinct, NaN payloads distinct — coincides with
	// plain int identity), with intMin/intMax bounding the values. The
	// grouped path uses it to replace per-row hashing with a dense array.
	allInt bool
	intMin int64
	intMax int64
}

func bitGet(bm []uint64, i int) bool { return bm[i>>6]&(1<<uint(i&63)) != 0 }
func bitSet(bm []uint64, i int)      { bm[i>>6] |= 1 << uint(i&63) }

func (cd *colData) isNull(i int) bool   { return bitGet(cd.null, i) }
func (cd *colData) isString(i int) bool { return bitGet(cd.isStr, i) }

// allNum reports whether every non-null cell is numeric (NULLs allowed).
func (cd *colData) allNum() bool { return cd.strCells == 0 }

// allStr reports whether every non-null cell is a string (NULLs allowed).
func (cd *colData) allStr() bool { return cd.numCells == 0 }

// value reconstructs the cell at row i, bit-identical to the row-store cell
// (build rejects non-canonical cells, so this cannot lose information).
func (cd *colData) value(i int) Value {
	if cd.isNull(i) {
		return Value{Null: true}
	}
	if cd.isString(i) {
		return Value{IsStr: true, Str: cd.strs[i]}
	}
	return Value{Num: cd.nums[i]}
}

// tableCols is one table's columnar image.
type tableCols struct {
	ok   bool // false: ragged rows or non-canonical cells; vec ineligible
	rows int
	cols []colData
}

// buildTableCols converts a table to columnar form in one pass.
func buildTableCols(t *Table) *tableCols {
	n := len(t.Rows)
	tc := &tableCols{ok: true, rows: n, cols: make([]colData, len(t.Cols))}
	words := (n + 63) / 64
	for ci := range tc.cols {
		cd := &tc.cols[ci]
		cd.nums = make([]float64, n)
		cd.null = make([]uint64, words)
		cd.isStr = make([]uint64, words)
		cd.allInt = true
	}
	for ri, row := range t.Rows {
		if len(row) < len(t.Cols) {
			tc.ok = false // ragged: direct row access would panic; stay row-path
		}
		for ci := range tc.cols {
			if ci >= len(row) {
				bitSet(tc.cols[ci].null, ri)
				continue
			}
			cd := &tc.cols[ci]
			v := row[ci]
			switch {
			case v.Null:
				if v.IsStr || v.Num != 0 || v.Str != "" {
					tc.ok = false // non-canonical NULL: gather could not reproduce it
				}
				bitSet(cd.null, ri)
			case v.IsStr:
				if v.Num != 0 {
					tc.ok = false
				}
				bitSet(cd.isStr, ri)
				if cd.strs == nil {
					// Allocated at the first string cell: all-numeric
					// columns never pay 16 B/cell for it.
					cd.strs = make([]string, n)
				}
				cd.strs[ri] = v.Str
				cd.strCells++
			default:
				if v.Str != "" {
					tc.ok = false
				}
				cd.nums[ri] = v.Num
				cd.numCells++
				if v.Num != v.Num {
					cd.hasNaN = true
				}
				if cd.allInt {
					iv := int64(v.Num)
					// Excludes NaN/±Inf/fractions (float64(iv) != v.Num for
					// all of them) and -0 (bits differ from +0).
					if float64(iv) != v.Num || (iv == 0 && math.Signbit(v.Num)) {
						cd.allInt = false
					} else {
						if cd.numCells == 1 || iv < cd.intMin {
							cd.intMin = iv
						}
						if cd.numCells == 1 || iv > cd.intMax {
							cd.intMax = iv
						}
					}
				}
			}
		}
	}
	return tc
}

// columnsFor returns the table's columnar image, building it on first use.
// Cached on the snapshot-keyed access cache next to stats and indexes.
func (db *DB) columnsFor(t *Table) *tableCols {
	ta := db.access(t)
	ta.mu.Lock()
	defer ta.mu.Unlock()
	if ta.cols == nil {
		t0 := time.Now()
		ta.cols = buildTableCols(t)
		db.colBuilds.Add(uint64(len(t.Cols)))
		db.observeBuild("columnar", time.Since(t0))
	}
	return ta.cols
}

// numHashIndex is a hash table over one all-numeric NaN-free column under
// join-key identity: keys are normalized float64 bits (joinKeyBits), bucket
// lists hold row indexes ascending. For finite floats the canonical text
// encoding appendJoinKey produces is injective, so bit identity with -0
// collapsed onto +0 yields exactly the `=` equivalence classes — columns
// containing NaN or strings are refused by the eligibility chooser instead.
type numHashIndex struct {
	tab     u64table
	buckets [][]int32
}

func buildNumHash(cd *colData, sel []int32, n int) *numHashIndex {
	count := n
	if sel != nil {
		count = len(sel)
	}
	h := &numHashIndex{tab: newU64Table(count)}
	for k := 0; k < count; k++ {
		ri := k
		if sel != nil {
			ri = int(sel[k])
		}
		if cd.isNull(ri) {
			continue // NULL never matches under `=`
		}
		slot := h.tab.insert(joinKeyBits(cd.nums[ri]))
		if *slot < 0 {
			*slot = int32(len(h.buckets))
			h.buckets = append(h.buckets, nil)
		}
		h.buckets[*slot] = append(h.buckets[*slot], int32(ri))
	}
	return h
}

// strHashIndex is the all-string analog: raw string keys (for two non-null
// strings, Compare==0 iff the strings are byte-equal, so no encoding needed).
type strHashIndex struct {
	idx     map[string]int32
	buckets [][]int32
}

func buildStrHash(cd *colData, sel []int32, n int) *strHashIndex {
	count := n
	if sel != nil {
		count = len(sel)
	}
	h := &strHashIndex{idx: make(map[string]int32, count)}
	for k := 0; k < count; k++ {
		ri := k
		if sel != nil {
			ri = int(sel[k])
		}
		if cd.isNull(ri) {
			continue
		}
		bi, ok := h.idx[cd.strs[ri]]
		if !ok {
			bi = int32(len(h.buckets))
			h.idx[cd.strs[ri]] = bi
			h.buckets = append(h.buckets, nil)
		}
		h.buckets[bi] = append(h.buckets[bi], int32(ri))
	}
	return h
}

// numHashFor returns the cached whole-column join hash for an all-numeric
// NaN-free column — the columnar analog of hashIndexFor, reused by any plan
// whose build side has no pushed predicates.
func (db *DB) numHashFor(t *Table, col int) *numHashIndex {
	ta := db.access(t)
	ta.mu.Lock()
	defer ta.mu.Unlock()
	if h, ok := ta.numHash[col]; ok {
		return h
	}
	tc := ta.cols // columnsFor has always run before join planning
	t0 := time.Now()
	h := buildNumHash(&tc.cols[col], nil, tc.rows)
	if ta.numHash == nil {
		ta.numHash = map[int]*numHashIndex{}
	}
	ta.numHash[col] = h
	db.colBuilds.Add(1)
	db.observeBuild("columnar-hash", time.Since(t0))
	return h
}

// strHashFor is numHashFor for all-string columns.
func (db *DB) strHashFor(t *Table, col int) *strHashIndex {
	ta := db.access(t)
	ta.mu.Lock()
	defer ta.mu.Unlock()
	if h, ok := ta.strHash[col]; ok {
		return h
	}
	tc := ta.cols
	t0 := time.Now()
	h := buildStrHash(&tc.cols[col], nil, tc.rows)
	if ta.strHash == nil {
		ta.strHash = map[int]*strHashIndex{}
	}
	ta.strHash[col] = h
	db.colBuilds.Add(1)
	db.observeBuild("columnar-hash", time.Since(t0))
	return h
}

// u64table is a linear-probing open-addressing map from uint64 keys to int32
// values, sized once at build. It exists because Go's map[uint64]int32 costs
// ~3-4x more per probe, and the join/group hot loops do one probe per row.
type u64table struct {
	keys []uint64
	vals []int32
	mask uint64
	n    int // claimed slots; maintained only by insertGrow
}

func newU64Table(n int) u64table {
	size := uint64(8)
	for size < uint64(n)*2 {
		size <<= 1
	}
	t := u64table{keys: make([]uint64, size), vals: make([]int32, size), mask: size - 1}
	for i := range t.vals {
		t.vals[i] = -1
	}
	return t
}

// u64hash is the murmur3 finalizer: full avalanche, so float64 bit patterns
// (whose entropy sits in the high bits) spread across the table.
func u64hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// find returns the value stored for k, or -1.
func (t *u64table) find(k uint64) int32 {
	i := u64hash(k) & t.mask
	for {
		if t.vals[i] < 0 {
			return -1
		}
		if t.keys[i] == k {
			return t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

// insert returns the slot for k, claiming an empty one if absent. A slot is
// empty iff its value is -1, so callers MUST store a non-negative value into
// the returned slot before the next find/insert call; a -1 result value
// means the key is new.
func (t *u64table) insert(k uint64) *int32 {
	i := u64hash(k) & t.mask
	for {
		if t.vals[i] < 0 {
			t.keys[i] = k
			return &t.vals[i]
		}
		if t.keys[i] == k {
			return &t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

// insertGrow is insert for callers that cannot size the table up front (the
// grouped path: group count is unknown until the data is seen). The table
// starts small and doubles whenever occupancy would cross half load. The
// returned slot is invalidated by the next insertGrow call, so callers must
// store through it immediately; n counts claimed slots and relies on that.
func (t *u64table) insertGrow(k uint64) *int32 {
	if uint64(t.n)*2 >= uint64(len(t.keys)) {
		t.grow()
	}
	slot := t.insert(k)
	if *slot < 0 {
		t.n++
	}
	return slot
}

func (t *u64table) grow() {
	old := *t
	size := uint64(len(old.keys)) * 2
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = size - 1
	for i := range t.vals {
		t.vals[i] = -1
	}
	for i, v := range old.vals {
		if v >= 0 {
			*t.insert(old.keys[i]) = v
		}
	}
}
