package iface

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pi2/internal/dataset"
	"pi2/internal/engine"
)

// liveSession builds a slider-interface session over its own private DB so
// tests can append without contaminating the package-wide testDB fixture.
func liveSession(t *testing.T, plans *PlanCache) (*Session, *engine.DB) {
	t.Helper()
	ifc, ctx := buildSliderInterface(t)
	db := dataset.NewDB()
	sess, err := NewSessionWithPlans(ifc, ctx, db, plans)
	if err != nil {
		t.Fatal(err)
	}
	return sess, db
}

func appendT(t *testing.T, db *engine.DB) {
	t.Helper()
	if err := db.Append("T", [][]engine.Value{{engine.NumVal(1), engine.NumVal(1), engine.NumVal(1)}}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionEvictionPrecision: a write to a table a session's queries never
// read leaves its cached results and the shared plans warm; a write to the
// table they do read invalidates exactly them.
func TestSessionEvictionPrecision(t *testing.T) {
	plans := NewPlanCache()
	sess, db := liveSession(t, plans) // the interface reads only table T
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
	warmCompiles := plans.Compiles()

	// Unrelated write: Cars is not referenced by any tree.
	if err := db.Append("Cars", [][]engine.Value{{
		engine.NumVal(9999), engine.NumVal(100), engine.NumVal(30), engine.NumVal(200), engine.StrVal("USA"),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.ResultHits != 1 {
		t.Fatalf("after unrelated write: result hits = %d, want 1 (cached result must stay warm)", st.ResultHits)
	}
	if st.Invalidations != 0 {
		t.Fatalf("after unrelated write: invalidations = %d, want 0", st.Invalidations)
	}
	if got := plans.Compiles(); got != warmCompiles {
		t.Fatalf("after unrelated write: plan compiles %d -> %d (shared plan must stay resident)", warmCompiles, got)
	}

	// Write to T: this session's one result must be discarded and recomputed.
	appendT(t, db)
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("after write to T: invalidations = %d, want 1", st.Invalidations)
	}
	if st.ResultHits != 1 {
		t.Fatalf("after write to T: result hits = %d, want still 1", st.ResultHits)
	}
	if plans.Compiles() != warmCompiles+1 {
		t.Fatalf("after write to T: plan compiles = %d, want %d (stale plan recompiled once)",
			plans.Compiles(), warmCompiles+1)
	}
	// The recomputed result must include the appended row (p=1, a=1 matches
	// the initial binding a = 1).
	sum := 0.0
	for _, row := range res[0].Rows {
		sum += row[1].Num
	}
	prev, _ := sess.Results() // now a hit again
	_ = prev
	if st2 := sess.Stats(); st2.ResultHits != 2 {
		t.Fatalf("re-read after invalidation: hits = %d, want 2", st2.ResultHits)
	}
	if sum == 0 {
		t.Fatal("recomputed result is empty")
	}
}

// TestSessionStaleExecRetries: a writer landing between plan resolution and
// execution is absorbed by the bounded retry (one-shot mutation), while a
// writer that outpaces every retry surfaces engine.ErrStalePlan.
func TestSessionStaleExecRetries(t *testing.T) {
	sess, db := liveSession(t, nil)
	fired := false
	sess.execHook = func() {
		if !fired {
			fired = true
			appendT(t, db)
		}
	}
	if _, err := sess.Results(); err != nil {
		t.Fatalf("one-shot mid-request write should be retried away, got %v", err)
	}

	sess.execHook = func() { appendT(t, db) } // sustained writer
	sess.ResetCache()
	if _, err := sess.Results(); !errors.Is(err, engine.ErrStalePlan) {
		t.Fatalf("sustained mid-request writer: err = %v, want ErrStalePlan", err)
	}
}

// TestExplainAnalyzeStale: same window, profiled path — retried once, clean
// sentinel error under a sustained writer (never a panic, never a profile
// over a half-mutated view).
func TestExplainAnalyzeStale(t *testing.T) {
	sess, db := liveSession(t, nil)
	fired := false
	sess.execHook = func() {
		if !fired {
			fired = true
			appendT(t, db)
		}
	}
	if _, _, err := sess.ExplainAnalyze(0); err != nil {
		t.Fatalf("one-shot mid-profile write should be retried away, got %v", err)
	}
	sess.execHook = func() { appendT(t, db) }
	if _, _, err := sess.ExplainAnalyze(0); !errors.Is(err, engine.ErrStalePlan) {
		t.Fatalf("sustained writer: err = %v, want ErrStalePlan", err)
	}
}

func newLiveServer(t *testing.T) (*httptest.Server, *Session, *engine.DB) {
	t.Helper()
	sess, db := liveSession(t, nil)
	srv := httptest.NewServer(withSessionKey(oneSessionServer(t, sess).WithIngest(db).Handler()))
	t.Cleanup(srv.Close)
	return srv, sess, db
}

// TestServerStaleMapsTo409: a request that loses the race against a
// sustained writer is a 409 Conflict (retry), not a 500 — on the page, and
// on both /sql explain variants.
func TestServerStaleMapsTo409(t *testing.T) {
	srv, sess, db := newLiveServer(t)
	sess.execHook = func() { appendT(t, db) }
	if code, body := get(t, srv.URL+"/"); code != http.StatusConflict || !strings.Contains(body, "stale") {
		t.Fatalf("GET / under sustained writer: code=%d body=%q, want 409 with stale message", code, body)
	}
	if code, body := get(t, srv.URL+"/sql?explain=1"); code != http.StatusConflict || !strings.Contains(body, "stale") {
		t.Fatalf("GET /sql?explain=1 under sustained writer: code=%d body=%q, want 409", code, body)
	}
	// Plan-only explain never executes, so it cannot lose the race.
	if code, _ := get(t, srv.URL+"/sql?explain=plan"); code != http.StatusOK {
		t.Fatalf("GET /sql?explain=plan: code=%d, want 200", code)
	}
	// One-shot mutation: absorbed by the retry, served normally.
	fired := false
	sess.execHook = func() {
		if !fired {
			fired = true
			appendT(t, db)
		}
	}
	if code, body := get(t, srv.URL+"/sql?explain=1"); code != http.StatusOK {
		t.Fatalf("GET /sql?explain=1 with one-shot write: code=%d body=%q, want 200", code, body)
	}
	sess.execHook = nil
	if code, _ := get(t, srv.URL+"/"); code != http.StatusOK {
		t.Fatalf("GET / after writer stopped: code=%d, want 200", code)
	}
}

// TestServerIngest drives the write path end to end: NDJSON rows land in
// the live table, the response reports the new generation, and the serving
// page immediately reflects the write.
func TestServerIngest(t *testing.T) {
	srv, sess, db := newLiveServer(t)
	before, _ := db.Table("T")
	n0 := len(before.Rows)
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/ingest?table=T", "application/x-ndjson",
		strings.NewReader(`{"p":1,"a":1,"b":2}`+"\n"+`{"p":2,"b":null}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: code=%d body=%s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"rows":2`) || !strings.Contains(string(body), `"table":"T"`) {
		t.Fatalf("ingest response = %s", body)
	}
	after, _ := db.Table("T")
	if len(after.Rows) != n0+2 {
		t.Fatalf("table has %d rows, want %d", len(after.Rows), n0+2)
	}
	if !after.Rows[n0+1][1].Null {
		t.Fatal("missing key should ingest as NULL")
	}
	// The session notices: its cached result is invalidated and recomputed.
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}

	// Error contract: method, parameter, table, and payload failures are
	// client errors and write nothing.
	for _, tc := range []struct {
		method, url, body string
		want              int
	}{
		{"GET", "/ingest?table=T", "", http.StatusMethodNotAllowed},
		{"POST", "/ingest", `{"p":1}`, http.StatusBadRequest},
		{"POST", "/ingest?table=nope", `{"p":1}`, http.StatusNotFound},
		{"POST", "/ingest?table=T", `{"zz":1}`, http.StatusBadRequest},
		{"POST", "/ingest?table=T", `{"p":"x"}`, http.StatusBadRequest},
		{"POST", "/ingest?table=T", `not json`, http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.url, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: code=%d, want %d", tc.method, tc.url, resp.StatusCode, tc.want)
		}
	}
	if got, _ := db.Table("T"); len(got.Rows) != n0+2 {
		t.Fatalf("failed requests wrote rows: %d, want %d", len(got.Rows), n0+2)
	}
}

// TestServeLiveAppendChurn hammers one serving session with concurrent page
// loads while a writer streams appends through /ingest: every response must
// be a 200 or a 409 (the bounded-retry loss), nothing else, and every
// accepted batch must be durable in the table. Run under -race in CI.
func TestServeLiveAppendChurn(t *testing.T) {
	srv, _, db := newLiveServer(t)
	before, _ := db.Table("T")
	n0 := len(before.Rows)

	const writes = 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
					t.Errorf("GET /: unexpected status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		resp, err := http.Post(srv.URL+"/ingest?table=T", "application/x-ndjson",
			strings.NewReader(fmt.Sprintf(`{"p":%d,"a":1,"b":1}`, i%6+1)+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest write %d: status %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()

	after, _ := db.Table("T")
	if len(after.Rows) != n0+writes {
		t.Fatalf("table has %d rows, want %d", len(after.Rows), n0+writes)
	}
	if got := db.AppendCounters(); got.Appends != writes {
		t.Fatalf("append batches = %d, want %d", got.Appends, writes)
	}
	// The quiesced server serves cleanly again.
	if code, _ := get(t, srv.URL+"/"); code != http.StatusOK {
		t.Fatalf("GET / after churn: code=%d, want 200", code)
	}
}
