package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"pi2/internal/sqlparser"
)

// Micro-benchmarks for the operator pipeline, each paired with its
// unoptimized (cross product + full sort) baseline so the speedup is
// visible in one `go test -bench BenchmarkEngine` run. CI runs these for
// one iteration under -race to exercise the pipeline's shared scan/build
// caches concurrently-safely.

// benchDB builds a fact table (rows rows) and a dim table (dims rows) with
// a foreign-key-like join column and skewed value columns.
func benchDB(rows, dims int) *DB {
	r := rand.New(rand.NewSource(42))
	db := NewDB("2020-12-31")
	dim := &Table{Name: "dim", Cols: []string{"k", "label"}, Types: []ColType{TNum, TStr}}
	for i := 0; i < dims; i++ {
		dim.Rows = append(dim.Rows, []Value{NumVal(float64(i)), StrVal(fmt.Sprintf("d%d", i))})
	}
	fact := &Table{Name: "fact", Cols: []string{"k", "v", "grp"}, Types: []ColType{TNum, TNum, TNum}}
	for i := 0; i < rows; i++ {
		fact.Rows = append(fact.Rows, []Value{
			NumVal(float64(r.Intn(dims))),
			NumVal(r.Float64() * 100),
			NumVal(float64(r.Intn(50))),
		})
	}
	db.Add(dim)
	db.Add(fact)
	return db
}

func benchPlan(b *testing.B, db *DB, sql string, optimized bool) {
	b.Helper()
	prep := PrepareUnoptimized
	if optimized {
		prep = Prepare
	}
	ast, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-prepare each iteration so the per-plan scan/build caches do
		// not amortize away the work being measured.
		plan, err := prep(db, ast)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Exec(); err != nil {
			b.Fatal(err)
		}
	}
}

const benchJoinSQL = `SELECT f.v, d.label FROM fact AS f, dim AS d WHERE f.k = d.k AND f.v > 25`

func BenchmarkEngineJoin(b *testing.B) {
	db := benchDB(2000, 200)
	b.Run("hash", func(b *testing.B) { benchPlan(b, db, benchJoinSQL, true) })
	b.Run("crossproduct", func(b *testing.B) { benchPlan(b, db, benchJoinSQL, false) })
}

// BenchmarkEngineJoinCached measures the serving-shaped case: one prepared
// plan executed repeatedly, where the pipeline's scan/build caches kick in.
func BenchmarkEngineJoinCached(b *testing.B) {
	db := benchDB(2000, 200)
	ast, err := sqlparser.Parse(benchJoinSQL)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Prepare(db, ast)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Exec(); err != nil {
			b.Fatal(err)
		}
	}
}

// Grouping and DISTINCT run the same operator on every path (the win over
// earlier revisions is the type-tagged key encoder replacing per-row Text()
// rendering and string joins), so they report one trajectory number each
// rather than a pipeline/naive split.
const benchGroupSQL = `SELECT grp, count(*), sum(v), avg(v) FROM fact GROUP BY grp`

// BenchmarkEngineGroupBy measures the vectorized aggregation (columnar
// accumulation over a u64 open-addressing group table) on a 50-group
// query, plus a high-cardinality run (2000 groups) where per-group
// overheads dominate.
func BenchmarkEngineGroupBy(b *testing.B) {
	db := benchDB(20000, 10)
	b.Run("vectorized", func(b *testing.B) { benchPlan(b, db, benchGroupSQL, true) })
	hdb := benchDB(20000, 2000)
	const hiSQL = `SELECT k, count(*), sum(v) FROM fact GROUP BY k`
	b.Run("high-cardinality-group", func(b *testing.B) { benchPlan(b, hdb, hiSQL, true) })
}

const benchDistinctSQL = `SELECT DISTINCT grp FROM fact`

func BenchmarkEngineDistinct(b *testing.B) {
	db := benchDB(20000, 10)
	benchPlan(b, db, benchDistinctSQL, true)
}

// benchScanDB builds the access-path fixture: `scan` is large enough for
// the cost model to prefer indexes (20k rows, k cycling 0..199 so a point
// lookup selects 0.5%).
func benchScanDB() *DB {
	r := rand.New(rand.NewSource(7))
	db := NewDB("2020-12-31")
	scan := &Table{Name: "scan", Cols: []string{"k", "v"}, Types: []ColType{TNum, TNum}}
	for i := 0; i < 20000; i++ {
		scan.Rows = append(scan.Rows, []Value{
			NumVal(float64(i % 200)),
			NumVal(r.Float64() * 100),
		})
	}
	db.Add(scan)
	return db
}

// BenchmarkEngineScan contrasts the three access paths on the same point
// and range predicates: the unoptimized sweep, the hash-index point lookup,
// and the sorted-index range scan. The per-column indexes are cached at the
// DB level, so re-preparing per iteration (benchPlan) still amortizes the
// build — exactly the serving-shaped behavior being measured.
func BenchmarkEngineScan(b *testing.B) {
	db := benchScanDB()
	const pointSQL = `SELECT v FROM scan WHERE k = 7`
	const rangeSQL = `SELECT v FROM scan WHERE k BETWEEN 7 AND 9`
	b.Run("full", func(b *testing.B) { benchPlan(b, db, pointSQL, false) })
	b.Run("index-point", func(b *testing.B) { benchPlan(b, db, pointSQL, true) })
	b.Run("index-range", func(b *testing.B) { benchPlan(b, db, rangeSQL, true) })
	// A low-selectivity sweep the cost model keeps off the indexes: the
	// chooser leaves it on the full scan, which the vectorized path then
	// runs as a batched columnar filter.
	const sweepSQL = `SELECT v FROM scan WHERE v > 25`
	b.Run("vectorized-filter", func(b *testing.B) { benchPlan(b, db, sweepSQL, true) })
}
