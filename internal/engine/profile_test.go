package engine

import (
	"fmt"
	"strings"
	"testing"

	"pi2/internal/sqlparser"
)

// profiled prepares sql, runs it both plain and profiled, and asserts the
// profiled result is identical to the plain one before returning the
// profile. The hooks must observe, never change what executes.
func profiled(t *testing.T, db *DB, sql string) *Profile {
	t.Helper()
	ast, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := Prepare(db, ast)
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	want, err := plan.Exec()
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	got, prof, err := plan.ExecProfiled()
	if err != nil {
		t.Fatalf("profiled exec %q: %v", sql, err)
	}
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
		t.Fatalf("profiled result differs from plain Exec for %q:\n got %v\nwant %v", sql, got, want)
	}
	if prof.Total <= 0 {
		t.Fatalf("profile total = %v, want > 0", prof.Total)
	}
	return prof
}

// opsByName indexes the profile's operators; duplicate ops keep the first.
func opsByName(p *Profile) map[string]OpStat {
	out := map[string]OpStat{}
	for _, op := range p.Ops {
		if _, ok := out[op.Op]; !ok {
			out[op.Op] = op
		}
	}
	return out
}

func TestProfileHashJoin(t *testing.T) {
	// Comma join with an equi conjunct: the pipeline scans both sources,
	// builds a hash over the later one, and probes.
	prof := profiled(t, testDB(),
		"SELECT emp.id, dept.city FROM emp, dept WHERE emp.dept = dept.name AND emp.salary > 85")
	ops := opsByName(prof)
	scanCount := 0
	for _, op := range prof.Ops {
		if op.Op == "scan" {
			scanCount++
		}
	}
	if scanCount != 2 {
		t.Fatalf("want one scan per source, got %d ops: %+v", scanCount, prof.Ops)
	}
	hb, ok := ops["hash-build"]
	if !ok {
		t.Fatalf("no hash-build op in %+v", prof.Ops)
	}
	if hb.RowsIn != 2 { // dept has 2 rows, no scan predicate on it
		t.Fatalf("hash-build rows in = %d, want 2", hb.RowsIn)
	}
	jn, ok := ops["join"]
	if !ok {
		t.Fatalf("no join op in %+v", prof.Ops)
	}
	if !strings.Contains(jn.Detail, "hash") {
		t.Fatalf("join mode = %q, want hash", jn.Detail)
	}
	if jn.RowsOut != 3 { // salaries 100, 120, 90 survive the scan filter
		t.Fatalf("join rows out = %d, want 3", jn.RowsOut)
	}
	// Scan on emp must show the pushdown: 4 rows in, 3 out.
	for _, op := range prof.Ops {
		if op.Op == "scan" && op.Detail == "emp" {
			if op.RowsIn != 4 || op.RowsOut != 3 {
				t.Fatalf("emp scan %d->%d, want 4->3", op.RowsIn, op.RowsOut)
			}
		}
	}
}

func TestProfileJoinKeyword(t *testing.T) {
	prof := profiled(t, testDB(),
		"SELECT emp.id, dept.city FROM emp LEFT JOIN dept ON emp.dept = dept.name")
	ops := opsByName(prof)
	if _, ok := ops["hash-build"]; !ok {
		t.Fatalf("no hash-build op for ON equi-join: %+v", prof.Ops)
	}
	jn, ok := ops["join"]
	if !ok {
		t.Fatalf("no join op in %+v", prof.Ops)
	}
	if !strings.Contains(jn.Detail, "left") || !strings.Contains(jn.Detail, "hash") {
		t.Fatalf("join detail = %q, want left hash", jn.Detail)
	}
	if jn.RowsIn != 4 || jn.RowsOut != 4 { // probe side: one env per emp row
		t.Fatalf("join %d->%d, want 4->4", jn.RowsIn, jn.RowsOut)
	}
}

func TestProfileSortLimitAndGroup(t *testing.T) {
	prof := profiled(t, testDB(),
		"SELECT dept, sum(salary) FROM emp GROUP BY dept ORDER BY sum(salary) DESC LIMIT 1")
	ops := opsByName(prof)
	g, ok := ops["group"]
	if !ok {
		t.Fatalf("no group op in %+v", prof.Ops)
	}
	if g.RowsIn != 4 || g.RowsOut != 2 {
		t.Fatalf("group %d->%d, want 4->2", g.RowsIn, g.RowsOut)
	}
	srt, ok := ops["sort"]
	if !ok {
		t.Fatalf("no sort op in %+v", prof.Ops)
	}
	if srt.RowsIn != 2 || srt.RowsOut != 2 {
		t.Fatalf("sort %d->%d, want 2->2", srt.RowsIn, srt.RowsOut)
	}
	lim, ok := ops["limit"]
	if !ok {
		t.Fatalf("no limit op in %+v", prof.Ops)
	}
	if lim.RowsIn != 2 || lim.RowsOut != 1 || lim.Detail != "1" {
		t.Fatalf("limit = %+v, want 2->1 detail 1", lim)
	}
}

func TestProfileSingleSourceScanAndString(t *testing.T) {
	// T has only 5 rows, so the cost model keeps the full sweep — and a
	// single-source sweep drops the pipeline entirely, falling back to the
	// in-place cross-filter path.
	prof := profiled(t, testDB(), "SELECT p FROM T WHERE a = 1")
	ops := opsByName(prof)
	cf, ok := ops["cross-filter"]
	if !ok {
		t.Fatalf("single-source sweep should use cross-filter: %+v", prof.Ops)
	}
	if cf.RowsIn != 5 || cf.RowsOut != 3 {
		t.Fatalf("cross-filter %d->%d, want 5->3", cf.RowsIn, cf.RowsOut)
	}
	// The report's access column is exercised on an index-choosing query
	// (big fixture: 200 rows, selective point predicate).
	db := bigDB()
	prof = profiled(t, db, "SELECT v FROM big WHERE k = 7")
	sc, ok := opsByName(prof)["scan"]
	if !ok || sc.Path != "index-scan(k)" {
		t.Fatalf("scan path = %q (ok=%v), want index-scan(k)", sc.Path, ok)
	}
	s := prof.String()
	for _, want := range []string{"operator", "access", "rows in", "rows out", "index-scan(k)", "total"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestProfileCrossFilterNoWhere(t *testing.T) {
	// Without a WHERE clause there is no pipeline; the cross product path
	// still reports its operator.
	prof := profiled(t, testDB(), "SELECT p FROM T")
	if _, ok := opsByName(prof)["cross-filter"]; !ok {
		t.Fatalf("no-WHERE query should use cross-filter: %+v", prof.Ops)
	}
}

func TestProfileResidual(t *testing.T) {
	// salary/10 can error on strings, so it stays residual.
	prof := profiled(t, testDB(),
		"SELECT emp.id FROM emp, dept WHERE emp.dept = dept.name AND emp.salary / 10 > 9")
	ops := opsByName(prof)
	rs, ok := ops["residual"]
	if !ok {
		t.Fatalf("no residual op in %+v", prof.Ops)
	}
	if rs.RowsOut >= rs.RowsIn {
		t.Fatalf("residual should filter rows: %+v", rs)
	}
}

func TestExecUnaffectedByProfiledRun(t *testing.T) {
	// Interleaved profiled and plain executions of one plan must agree
	// (scan caches are shared; profiling must not corrupt them).
	db := testDB()
	ast, err := sqlparser.Parse("SELECT emp.id FROM emp, dept WHERE emp.dept = dept.name")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Prepare(db, ast)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.Exec()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = plan.ExecProfiled()
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
		t.Fatalf("plain exec changed after profiled run:\n%v\n%v", a, b)
	}
}
