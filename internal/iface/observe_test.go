package iface

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"pi2/internal/obs"
)

// newObsHandler builds a registry-mode server with full observability
// attached, driven synchronously via ResponseRecorders (no test server, no
// goroutines — after ServeHTTP returns, every metric and slow-log line is
// written).
func newObsHandler(t *testing.T, slow *obs.SlowLog) (http.Handler, *ServerObs, *Registry) {
	t.Helper()
	ifc, ctx := buildSliderInterface(t)
	pc := NewPlanCache()
	reg := NewRegistry(func() (*Session, error) {
		return NewSessionWithPlans(ifc, ctx, testDB, pc)
	}, RegistryOptions{Plans: pc})
	m := obs.NewRegistry()
	o := NewServerObs(m, slow)
	RegisterServingMetrics(m, reg)
	o.ObserveEngine(testDB)
	return NewRegistryServer(reg).WithObs(o).Handler(), o, reg
}

func doReq(h http.Handler, method, target string, form url.Values) *httptest.ResponseRecorder {
	var req *http.Request
	if form != nil {
		req = httptest.NewRequest(method, target, strings.NewReader(form.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestMetricsEndpointScrape(t *testing.T) {
	h, _, _ := newObsHandler(t, nil)
	doReq(h, "GET", "/?session=alice", nil)
	doReq(h, "GET", "/?session=alice", nil)
	doReq(h, "POST", "/widget", url.Values{"session": {"alice"}, "id": {"w0"}, "value": {"3"}})

	rr := doReq(h, "GET", "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body := rr.Body.String()
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`pi2_http_requests_total{path="/"} 2`,
		`pi2_http_request_seconds_bucket{path="/",le="+Inf"} 2`,
		`pi2_http_request_seconds_count{path="/"} 2`,
		`pi2_phase_seconds_count{phase="acquire"}`,
		`pi2_cache_hits_total{layer="result"}`,
		`pi2_cache_misses_total{layer="plan"}`,
		"pi2_sessions_live 1",
		"pi2_sessions_created_total 1",
		"pi2_uptime_seconds",
		"pi2_http_in_flight",
		"pi2_engine_index_builds_total",
		"pi2_engine_index_hits_total",
		"pi2_engine_stats_builds_total",
		`pi2_engine_index_build_seconds_bucket{kind="hash",le="+Inf"}`,
		"pi2_engine_column_builds_total",
		"pi2_engine_batches_total",
		`pi2_engine_batch_rows_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestMetricsRouteAbsentWithoutObs(t *testing.T) {
	srv, _ := newTestServer(t) // no WithObs
	// Without observability /metrics is not routed: the catch-all "/" serves
	// the interface page, and no Prometheus text leaks anywhere.
	_, body := get(t, srv.URL+"/metrics")
	if strings.Contains(body, "pi2_http_requests_total") {
		t.Fatalf("uninstrumented server exposes metrics:\n%s", body)
	}
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Trace-Id") != "" {
		t.Fatal("uninstrumented response carries X-Trace-Id")
	}
}

func TestTraceIDHeader(t *testing.T) {
	h, _, _ := newObsHandler(t, nil)
	rr := doReq(h, "GET", "/healthz", nil)
	if rr.Header().Get("X-Trace-Id") == "" {
		t.Fatal("instrumented response missing X-Trace-Id")
	}
}

func TestIndexRecordsPhaseHistograms(t *testing.T) {
	h, o, _ := newObsHandler(t, nil)
	doReq(h, "GET", "/?session=alice", nil)
	for _, phase := range []string{"acquire", "plan", "exec", "render"} {
		if n := o.phase[phase].Count(); n == 0 {
			t.Errorf("phase %q recorded no observations", phase)
		}
	}
	// Second hit: results come from the cache, so no new plan/exec spans.
	plans := o.phase["plan"].Count()
	doReq(h, "GET", "/?session=alice", nil)
	if n := o.phase["plan"].Count(); n != plans {
		t.Errorf("cached page load recorded %d new plan spans", n-plans)
	}
	if n := o.phase["render"].Count(); n < 2 {
		t.Errorf("render spans = %d, want one per page load", n)
	}
}

// TestStatsJSONByteCompatible pins the contract that attaching observability
// only appends to the /stats object: the uninstrumented encoding minus its
// closing brace must be a byte prefix of the instrumented encoding, in both
// registry and single-session modes.
func TestStatsJSONByteCompatible(t *testing.T) {
	ifc, ctx := buildSliderInterface(t)

	t.Run("registry", func(t *testing.T) {
		pc := NewPlanCache()
		factory := func() (*Session, error) { return NewSessionWithPlans(ifc, ctx, testDB, pc) }
		reg := NewRegistry(factory, RegistryOptions{Plans: pc})
		plain := doReq(NewRegistryServer(reg).Handler(), "GET", "/stats", nil).Body.String()
		instr := doReq(NewRegistryServer(reg).WithObs(NewServerObs(obs.NewRegistry(), nil)).Handler(),
			"GET", "/stats", nil).Body.String()
		prefix := strings.TrimSuffix(strings.TrimSpace(plain), "}")
		if !strings.HasPrefix(instr, prefix) {
			t.Fatalf("instrumented /stats does not extend the plain encoding:\nplain: %s\ninstr: %s", plain, instr)
		}
	})

	t.Run("single", func(t *testing.T) {
		sess, err := NewSession(ifc, ctx, testDB)
		if err != nil {
			t.Fatal(err)
		}
		// One live session with cache traffic and no shared plan cache.
		if _, err := sess.Results(); err != nil {
			t.Fatal(err)
		}
		plain := doReq(oneSessionServer(t, sess).Handler(), "GET", "/stats", nil).Body.String()
		instr := doReq(oneSessionServer(t, sess).WithObs(NewServerObs(obs.NewRegistry(), nil)).Handler(),
			"GET", "/stats", nil).Body.String()
		prefix := strings.TrimSuffix(strings.TrimSpace(plain), "}")
		if !strings.HasPrefix(instr, prefix) {
			t.Fatalf("instrumented /stats does not extend the plain encoding:\nplain: %s\ninstr: %s", plain, instr)
		}
	})
}

func TestStatsObsFields(t *testing.T) {
	h, _, _ := newObsHandler(t, nil)
	doReq(h, "GET", "/?session=alice", nil)
	rr := doReq(h, "GET", "/stats", nil)
	var got struct {
		LiveSessions int `json:"live_sessions"`
		Obs          struct {
			UptimeSeconds float64           `json:"uptime_seconds"`
			InFlight      int64             `json:"in_flight"`
			Requests      map[string]uint64 `json:"requests"`
			Index         *struct {
				Builds uint64 `json:"builds"`
				Hits   uint64 `json:"hits"`
			} `json:"index"`
			Columnar *struct {
				ColumnBuilds uint64 `json:"column_builds"`
				Batches      uint64 `json:"batches"`
				BatchRows    uint64 `json:"batch_rows"`
			} `json:"columnar"`
		} `json:"obs"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode /stats: %v\n%s", err, rr.Body.String())
	}
	if got.LiveSessions != 1 {
		t.Errorf("live_sessions = %d, want 1", got.LiveSessions)
	}
	if got.Obs.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v", got.Obs.UptimeSeconds)
	}
	if got.Obs.Requests["/"] != 1 {
		t.Errorf(`requests["/"] = %d, want 1`, got.Obs.Requests["/"])
	}
	// /stats runs inside the middleware, so it counts itself as in flight.
	if got.Obs.InFlight != 1 {
		t.Errorf("in_flight = %d, want 1 (the /stats request itself)", got.Obs.InFlight)
	}
	// With the engine observed, the obs object carries the index counters
	// and the columnar counters.
	if got.Obs.Index == nil {
		t.Error("obs.index missing from /stats with ObserveEngine attached")
	}
	if got.Obs.Columnar == nil {
		t.Error("obs.columnar missing from /stats with ObserveEngine attached")
	}
}

func TestSlowLogEmission(t *testing.T) {
	var buf bytes.Buffer
	slow := obs.NewSlowLog(&buf, time.Nanosecond) // everything is slow
	h, _, _ := newObsHandler(t, slow)
	doReq(h, "GET", "/?session=alice", nil)
	line, _, _ := strings.Cut(buf.String(), "\n")
	var entry struct {
		Kind   string  `json:"kind"`
		Detail string  `json:"detail"`
		Ms     float64 `json:"ms"`
		Trace  string  `json:"trace"`
		Spans  []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow log line not JSON: %v\n%q", err, line)
	}
	if entry.Kind != "http" || entry.Detail != "GET /" || entry.Trace == "" {
		t.Fatalf("entry = %+v", entry)
	}
	names := map[string]bool{}
	for _, sp := range entry.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"acquire", "plan.t0", "exec.t0", "render"} {
		if !names[want] {
			t.Errorf("slow entry missing span %q (have %v)", want, entry.Spans)
		}
	}
}

func TestSQLExplainAnalyze(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/sql?explain=1")
	if code != http.StatusOK {
		t.Fatalf("status = %d\n%s", code, body)
	}
	for _, want := range []string{"tree 0:", "operator", "rows in", "rows out", "total"} {
		if !strings.Contains(body, want) {
			t.Errorf("explain output missing %q:\n%s", want, body)
		}
	}
	// Explaining must not disturb the plain /sql view.
	_, plain := get(t, srv.URL+"/sql")
	if strings.Contains(plain, "operator") {
		t.Fatalf("plain /sql shows profile output:\n%s", plain)
	}
}

func TestSQLExplainPlan(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/sql?explain=plan")
	if code != http.StatusOK {
		t.Fatalf("status = %d\n%s", code, body)
	}
	for _, want := range []string{"tree 0:", "scan"} {
		if !strings.Contains(body, want) {
			t.Errorf("plan output missing %q:\n%s", want, body)
		}
	}
	// Plan-only: no per-operator execution report.
	for _, ban := range []string{"operator", "rows in", "total"} {
		if strings.Contains(body, ban) {
			t.Errorf("explain=plan leaked execution output %q:\n%s", ban, body)
		}
	}
}
