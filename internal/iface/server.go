package iface

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"pi2/internal/engine"
	"pi2/internal/ingest"
	"pi2/internal/obs"
	"pi2/internal/widget"
)

// Server serves a generated interface as a live web application: widgets
// render as HTML forms, manipulations post back, the Session rebinds and
// re-executes the underlying queries (via the session's interaction cache),
// and the page re-renders — the browser/server/database stack the paper's
// generated interfaces deploy to, built on net/http alone.
//
// The server is multi-tenant: each request is routed to a per-user Session
// of a Registry, picked by the session-key protocol below; sessions are
// created on demand, and /stats reports the registry aggregate.
//
// Session-key protocol: a request addresses its session with the `session`
// form/query parameter if present, else with the `pi2session` cookie; a
// request carrying neither is assigned a fresh random key via Set-Cookie
// (HttpOnly, SameSite=Lax — the key is the session's sole credential).
// Keys are 1–64 characters of [A-Za-z0-9._~-]; anything else is a 400.
// Redirects after manipulations propagate an explicitly passed key in the
// URL so cookie-less clients (curl, tests, load generators) stay on their
// session. Sessions are created by the page ("/") and by well-formed
// manipulations; malformed manipulations are rejected before any session
// is acquired, and the read-only /sql never creates one (unknown key →
// 404) — so garbage traffic cannot churn creation or evict live users.
//
// Concurrency is handled per session: every Session method takes the
// session's own mutex, so concurrent requests against the same session
// serialize on its state while leaving other sessions untouched.
type Server struct {
	reg    *Registry
	obs    *ServerObs // nil: no metrics, no tracing, no /metrics route
	ingest *engine.DB // nil: no /ingest route
}

// NewRegistryServer serves per-user sessions out of a registry.
func NewRegistryServer(reg *Registry) *Server { return &Server{reg: reg} }

// WithObs attaches serving observability (request metrics, traces, slow
// log) and enables the /metrics route. Call before Handler. Returns sv for
// chaining; a nil o leaves the server uninstrumented.
func (sv *Server) WithObs(o *ServerObs) *Server {
	sv.obs = o
	return sv
}

// WithIngest enables the write path: POST /ingest appends NDJSON rows to
// db's live tables. Call before Handler with the same DB the sessions
// serve. Returns sv for chaining; a nil db leaves the server read-only.
func (sv *Server) WithIngest(db *engine.DB) *Server {
	sv.ingest = db
	return sv
}

// errStatus maps a request-time execution error to its HTTP status. A stale
// plan is not a server fault: a live writer moved a table between plan
// resolution and execution faster than the bounded retries could catch up,
// and the client should simply retry — 409 Conflict, not 500.
func errStatus(err error) int {
	if errors.Is(err, engine.ErrStalePlan) {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// Handler returns the http.Handler serving the interface. With observability
// attached every route is wrapped in the tracing/metrics middleware and
// /metrics is served; without it the routes are bare — no trace, no
// timestamps, not even a nil check per request.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", sv.obs.wrap("/", sv.handleIndex))
	mux.HandleFunc("/widget", sv.obs.wrap("/widget", sv.handleWidget))
	mux.HandleFunc("/interact", sv.obs.wrap("/interact", sv.handleInteract))
	mux.HandleFunc("/reset", sv.obs.wrap("/reset", sv.handleReset))
	mux.HandleFunc("/sql", sv.obs.wrap("/sql", sv.handleSQL))
	if sv.ingest != nil {
		mux.HandleFunc("/ingest", sv.obs.wrap("/ingest", sv.handleIngest))
	}
	mux.HandleFunc("/stats", sv.obs.wrap("/stats", sv.handleStats))
	mux.HandleFunc("/healthz", sv.obs.wrap("/healthz", sv.handleHealthz))
	if sv.obs != nil {
		mux.HandleFunc("/metrics", sv.obs.wrap("/metrics", sv.handleMetrics))
	}
	return mux
}

// handleMetrics serves the Prometheus text exposition. Reads go through the
// same atomics the record path writes, so a scrape never blocks serving.
func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sv.obs.Metrics.WritePrometheus(w)
}

// sessionCookie names the cookie carrying a browser's session key.
const sessionCookie = "pi2session"

// validSessionKey accepts 1–64 characters of [A-Za-z0-9._~-] (the URL
// "unreserved" set): enough for generated hex keys and human-chosen names,
// and safe to echo into cookies, URLs, and HTML attributes.
func validSessionKey(key string) bool {
	if len(key) == 0 || len(key) > 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '~' || c == '-':
		default:
			return false
		}
	}
	return true
}

func newSessionKey() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; keys only need to be
		// distinct per browser, so a fixed fallback still serves (as one
		// shared session) rather than crashing the server.
		return "fallback"
	}
	return hex.EncodeToString(b[:])
}

// sessionFor resolves the session a request addresses and reports the key
// to propagate plus whether the client named it explicitly in the request
// parameters. On failure it writes the HTTP error — bad keys are the
// client's fault (400), a draining registry is unavailability (503) — and
// returns ok=false.
func (sv *Server) sessionFor(w http.ResponseWriter, r *http.Request) (sess *Session, key string, explicit bool, ok bool) {
	key = r.FormValue("session")
	explicit = key != ""
	fromCookie := false
	if key == "" {
		if c, err := r.Cookie(sessionCookie); err == nil {
			key, fromCookie = c.Value, true
		}
	}
	generated := key == ""
	if generated {
		key = newSessionKey()
	}
	if !validSessionKey(key) {
		if fromCookie {
			// An unusable cookie would otherwise 400 the client forever;
			// replace it with a fresh session instead.
			key, generated = newSessionKey(), true
		} else {
			http.Error(w, "invalid session key", http.StatusBadRequest)
			return nil, "", false, false
		}
	}
	sess, err := sv.reg.Acquire(key)
	if err != nil {
		if errors.Is(err, ErrRegistryClosed) {
			http.Error(w, "server is shutting down", http.StatusServiceUnavailable)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return nil, "", false, false
	}
	if generated {
		// The key is the session's sole credential: keep it away from
		// scripts and cross-site form posts.
		http.SetCookie(w, &http.Cookie{
			Name: sessionCookie, Value: key, Path: "/",
			HttpOnly: true, SameSite: http.SameSiteLaxMode,
		})
	}
	return sess, key, explicit, true
}

// requestKey resolves the session key a request addresses (parameter, then
// cookie) without creating anything. ok is false when the key is missing
// or malformed.
func (sv *Server) requestKey(r *http.Request) (key string, ok bool) {
	key = r.FormValue("session")
	if key == "" {
		if c, err := r.Cookie(sessionCookie); err == nil {
			key = c.Value
		}
	}
	return key, validSessionKey(key)
}

// redirectTarget keeps an explicitly addressed session on its key across
// the post/redirect/get cycle; cookie-addressed sessions need nothing in
// the URL.
func redirectTarget(key string, explicit bool) string {
	if explicit {
		return "/?session=" + url.QueryEscape(key)
	}
	return "/"
}

// handleHealthz is the liveness/readiness probe: it answers without taking
// any session or registry lock, so a long-running interaction cannot fail a
// health check, and load balancers can poll it cheaply.
func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (sv *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	var end func()
	if tr != nil {
		end = tr.Span("acquire")
	}
	sess, key, explicit, ok := sv.sessionFor(w, r)
	if end != nil {
		end()
	}
	if !ok {
		return
	}
	if !explicit {
		key = "" // cookie-bound: keep session keys out of forms and URLs
	}
	if tr != nil {
		// Pre-execute the trees with the trace attached so plan/exec spans
		// attribute to this request; renderPage's own Results call then hits
		// the result cache.
		if _, err := sess.ResultsTraced(tr); err != nil {
			http.Error(w, err.Error(), errStatus(err))
			return
		}
		end = tr.Span("render")
	}
	page, err := sv.renderPage(sess, key)
	if end != nil {
		end()
	}
	if err != nil {
		http.Error(w, err.Error(), errStatus(err))
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, page)
}

// widgetAction decodes a widget manipulation (?id=w0&option=1,
// ?id=w0&value=3, ?id=w0&on=true, ?id=w0&lo=1&hi=5, ?id=w0&checked=0,2)
// into a deferred application. Decoding happens before any session is
// acquired, so malformed requests are rejected without ever creating a
// session (or evicting a live user's to make room for one).
func widgetAction(form url.Values) (func(*Session) error, error) {
	id := form.Get("id")
	switch {
	case form.Get("option") != "":
		opt, err := strconv.Atoi(form.Get("option"))
		if err != nil {
			return nil, err
		}
		return func(s *Session) error { return s.SetOption(id, opt) }, nil
	case form.Get("value") != "":
		if v, err := strconv.ParseFloat(form.Get("value"), 64); err == nil {
			return func(s *Session) error { return s.SetSlider(id, v) }, nil
		}
		return func(s *Session) error { return s.SetText(id, form.Get("value")) }, nil
	case form.Get("text") != "":
		return func(s *Session) error { return s.SetText(id, form.Get("text")) }, nil
	case form.Get("on") != "":
		on := form.Get("on") == "true"
		return func(s *Session) error { return s.SetToggle(id, on) }, nil
	case form.Get("lo") != "" && form.Get("hi") != "":
		lo, err := strconv.ParseFloat(form.Get("lo"), 64)
		if err != nil {
			return nil, err
		}
		hi, err := strconv.ParseFloat(form.Get("hi"), 64)
		if err != nil {
			return nil, err
		}
		return func(s *Session) error { return s.SetRange(id, lo, hi) }, nil
	case form.Get("checked") != "":
		var idxs []int
		for _, p := range strings.Split(form.Get("checked"), ",") {
			i, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, err
			}
			idxs = append(idxs, i)
		}
		return func(s *Session) error { return s.SetChecked(id, idxs) }, nil
	}
	return nil, fmt.Errorf("no manipulation parameter")
}

// interactAction decodes a visualization interaction
// (?vis=vis0&kind=brush-x&bounds=10,50, ?vis=vis0&kind=click&row=3,
// ?vis=vis0&kind=brush-x&clear=1) into a deferred application; same
// decode-before-acquire contract as widgetAction.
func interactAction(form url.Values) (func(*Session) error, error) {
	visID := form.Get("vis")
	kind := form.Get("kind")
	switch {
	case form.Get("clear") != "":
		return func(s *Session) error { return s.ClearBrush(visID, kind) }, nil
	case form.Get("row") != "":
		row, err := strconv.Atoi(form.Get("row"))
		if err != nil {
			return nil, err
		}
		return func(s *Session) error { return s.Click(visID, row) }, nil
	case form.Get("bounds") != "":
		bounds := strings.Split(form.Get("bounds"), ",")
		for i := range bounds {
			bounds[i] = strings.TrimSpace(bounds[i])
		}
		return func(s *Session) error { return s.Brush(visID, kind, bounds...) }, nil
	}
	return nil, fmt.Errorf("no interaction parameter")
}

// handleManipulation is the shared skeleton of /widget and /interact:
// parse, decode (reject garbage before touching the registry), resolve the
// session, apply, redirect.
func (sv *Server) handleManipulation(w http.ResponseWriter, r *http.Request,
	decode func(url.Values) (func(*Session) error, error)) {
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	apply, err := decode(r.Form)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tr := obs.FromContext(r.Context())
	var end func()
	if tr != nil {
		end = tr.Span("acquire")
	}
	sess, key, explicit, ok := sv.sessionFor(w, r)
	if end != nil {
		end()
	}
	if !ok {
		return
	}
	if tr != nil {
		end = tr.Span("apply")
	}
	err = apply(sess)
	if end != nil {
		end()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Redirect(w, r, redirectTarget(key, explicit), http.StatusSeeOther)
}

func (sv *Server) handleWidget(w http.ResponseWriter, r *http.Request) {
	sv.handleManipulation(w, r, widgetAction)
}

func (sv *Server) handleInteract(w http.ResponseWriter, r *http.Request) {
	sv.handleManipulation(w, r, interactAction)
}

func (sv *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	sess, key, explicit, ok := sv.sessionFor(w, r)
	if !ok {
		return
	}
	if err := sess.ApplyQuery(0); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	http.Redirect(w, r, redirectTarget(key, explicit), http.StatusSeeOther)
}

// handleSQL reports the current bound SQL of every tree (text/plain). The
// snapshot is taken under a single session lock so concurrent
// manipulations cannot tear it across trees. Read-only, so it never
// creates a session: an unknown or absent key is a 404, and scrapes can
// neither churn creation nor evict a live user.
//
// With ?explain=plan each tree's compiled plan is rendered without running
// it (plan-only EXPLAIN): access paths with statistics estimates, join
// strategy and build sides, predicate placement. With any other non-zero
// ?explain value each tree is re-executed with per-operator profiling
// (EXPLAIN ANALYZE): the report shows rows in/out and wall time for every
// physical operator the plan ran. The profiled run bypasses the result
// cache — that is the point — but leaves serving state untouched.
func (sv *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	key, ok := sv.requestKey(r)
	if key == "" {
		http.Error(w, "no session addressed", http.StatusNotFound)
		return
	}
	if !ok {
		http.Error(w, "invalid session key", http.StatusBadRequest)
		return
	}
	sess, live := sv.reg.Lookup(key)
	if !live {
		http.Error(w, "no such session", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.FormValue("explain") == "plan" {
		sv.explainAll(w, sess, func(ti int) (string, string, error) { return sess.ExplainPlan(ti) })
		return
	}
	if ex := r.FormValue("explain"); ex != "" && ex != "0" {
		sv.explainAll(w, sess, func(ti int) (string, string, error) {
			sql, prof, err := sess.ExplainAnalyze(ti)
			if err != nil {
				return "", "", err
			}
			return sql, fmt.Sprint(prof), nil
		})
		return
	}
	for ti, ts := range sess.CurrentSQLAll() {
		if ts.Err != nil {
			fmt.Fprintf(w, "tree %d: error: %v\n", ti, ts.Err)
			continue
		}
		fmt.Fprintf(w, "tree %d: %s\n", ti, ts.SQL)
	}
}

// explainAll runs one explain variant over every tree, buffering the report
// so the status line can still reflect a stale-plan loss: if a live writer
// outpaced the bounded re-prepare retries on any tree, the whole report is
// a 409 (retry and it will almost certainly win) rather than a 500 — the
// server did nothing wrong. Other per-tree errors keep the seed behavior:
// inline in a 200 body, since partial explain output is still useful.
func (sv *Server) explainAll(w http.ResponseWriter, sess *Session, explain func(int) (string, string, error)) {
	var buf strings.Builder
	stale := false
	for ti := range sess.Ifc.State.Trees {
		sql, text, err := explain(ti)
		if err != nil {
			stale = stale || errors.Is(err, engine.ErrStalePlan)
			fmt.Fprintf(&buf, "tree %d: error: %v\n\n", ti, err)
			continue
		}
		fmt.Fprintf(&buf, "tree %d: %s\n%s\n", ti, sql, text)
	}
	if stale {
		w.WriteHeader(http.StatusConflict)
	}
	fmt.Fprint(w, buf.String())
}

// maxIngestBytes bounds one /ingest request body (32 MiB). Live appends are
// meant to be incremental; bulk loads belong in the offline ingest CLI.
const maxIngestBytes = 32 << 20

// handleIngest is the write path: POST /ingest?table=name with an NDJSON
// body (one flat object per line, keys addressing the table's columns)
// appends the decoded rows to the live table and reports the new global
// generation. Decoding is all-or-nothing — a bad line rejects the whole
// batch with a 400 before anything is written — so a client never has to
// guess how much of a failed batch landed. Sessions notice the write via
// per-table generations: only plans and cached results that read the
// written table re-execute; everything else stays hot.
func (sv *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// The table name rides in the query string on purpose: FormValue would
	// swallow the body as form data.
	name := r.URL.Query().Get("table")
	if name == "" {
		http.Error(w, "missing table parameter", http.StatusBadRequest)
		return
	}
	tbl, ok := sv.ingest.Table(name)
	if !ok {
		http.Error(w, fmt.Sprintf("no such table %q", name), http.StatusNotFound)
		return
	}
	rows, err := ingest.DecodeRows(http.MaxBytesReader(w, r.Body, maxIngestBytes), tbl)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := sv.ingest.Append(tbl.Name, rows); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(struct {
		Table      string `json:"table"`
		Rows       int    `json:"rows"`
		Generation uint64 `json:"generation"`
	}{tbl.Name, len(rows), sv.ingest.Generation()})
	w.Write(append(body, '\n'))
}

// handleStats reports the serving counters as JSON: the registry aggregate
// (occupancy, evictions, summed per-session cache traffic). Per-session
// counters are atomics and the registry takes only its read lock, so /stats
// never waits on an in-flight interaction.
//
// With observability attached the object gains uptime_seconds, in_flight,
// and a per-endpoint requests map. The pre-existing fields are embedded
// first, so the byte prefix of the JSON is identical to the uninstrumented
// encoding — pinned by TestStatsJSONByteCompatible.
func (sv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var v any = sv.reg.Stats()
	if sv.obs != nil {
		up, inflight, reqs := sv.obs.statsExt()
		// Index is appended after the pre-existing fields (and omitted when
		// the engine is not observed), so the JSON prefix stays identical.
		ext := struct {
			UptimeSeconds float64                  `json:"uptime_seconds"`
			InFlight      int64                    `json:"in_flight"`
			Requests      map[string]uint64        `json:"requests"`
			Index         *engine.IndexCounters    `json:"index,omitempty"`
			Columnar      *engine.ColumnarCounters `json:"columnar,omitempty"`
			Append        *engine.AppendCounters   `json:"append,omitempty"`
		}{up, inflight, reqs, nil, nil, nil}
		if sv.obs.engineIdx != nil {
			ic := sv.obs.engineIdx()
			ext.Index = &ic
		}
		if sv.obs.engineCol != nil {
			cc := sv.obs.engineCol()
			ext.Columnar = &cc
		}
		if sv.obs.engineApp != nil {
			ac := sv.obs.engineApp()
			ext.Append = &ac
		}
		v = struct {
			RegistryStats
			X any `json:"obs"`
		}{v.(RegistryStats), ext}
	}
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// renderPage renders the snapshot plus manipulation forms. A non-empty key
// is embedded as a hidden field in every form (and in the reset/SQL links)
// so explicitly addressed sessions survive the round trip.
func (sv *Server) renderPage(sess *Session, key string) (string, error) {
	snapshot, err := RenderHTML(sess)
	if err != nil {
		return "", err
	}
	sessionField := ""
	if key != "" {
		sessionField = fmt.Sprintf(`<input type="hidden" name="session" value="%s">`, html.EscapeString(key))
	}
	var b strings.Builder
	// strip the closing tags so we can append the control panel
	trimmed := strings.Replace(snapshot, "</body></html>", "", 1)
	b.WriteString(trimmed)
	b.WriteString(`<div style="margin-top:16px;border-top:1px solid #ccc;padding-top:8px">`)
	b.WriteString(`<h3>Manipulations</h3>`)
	for _, ws := range sess.Ifc.Widgets {
		fmt.Fprintf(&b, `<form method="POST" action="/widget" style="margin:4px 0">`)
		b.WriteString(sessionField)
		fmt.Fprintf(&b, `<input type="hidden" name="id" value="%s">`, html.EscapeString(ws.ElemID))
		fmt.Fprintf(&b, `<b>%s</b> (%s) `, html.EscapeString(ws.ElemID), ws.Kind)
		switch ws.Kind {
		case widget.Radio, widget.Dropdown, widget.Button:
			b.WriteString(`<select name="option">`)
			for i, o := range ws.Options {
				fmt.Fprintf(&b, `<option value="%d">%s</option>`, i, html.EscapeString(o))
			}
			b.WriteString(`</select>`)
		case widget.Toggle:
			b.WriteString(`<select name="on"><option value="true">on</option><option value="false">off</option></select>`)
		case widget.Slider:
			fmt.Fprintf(&b, `<input name="value" type="number" step="any" min="%g" max="%g">`, ws.Min, ws.Max)
		case widget.RangeSlider:
			fmt.Fprintf(&b, `<input name="lo" type="number" step="any"> – <input name="hi" type="number" step="any">`)
		case widget.Textbox:
			b.WriteString(`<input name="text" type="text">`)
		case widget.Checkbox, widget.Adder:
			b.WriteString(`<input name="checked" type="text" placeholder="0,2">`)
		}
		b.WriteString(`<button type="submit">apply</button></form>`)
	}
	for _, v := range sess.Ifc.VisInts {
		src := sess.Ifc.Vis[v.SourceVis].ElemID
		fmt.Fprintf(&b, `<form method="POST" action="/interact" style="margin:4px 0">`)
		b.WriteString(sessionField)
		fmt.Fprintf(&b, `<input type="hidden" name="vis" value="%s"><input type="hidden" name="kind" value="%s">`,
			html.EscapeString(src), html.EscapeString(string(v.Kind)))
		fmt.Fprintf(&b, `<b>%s on %s</b> → tree %d `, v.Kind, html.EscapeString(src), v.Tree)
		switch v.Kind {
		case "click", "multiclick":
			b.WriteString(`row <input name="row" type="number" min="0">`)
		default:
			b.WriteString(`bounds <input name="bounds" type="text" placeholder="lo,hi[,lo2,hi2]">`)
		}
		b.WriteString(`<button type="submit">apply</button></form>`)
	}
	fmt.Fprintf(&b, `<form method="POST" action="/reset">%s<button type="submit">reset to first query</button></form>`, sessionField)
	sqlHref := "/sql"
	if key != "" {
		sqlHref += "?session=" + url.QueryEscape(key)
	}
	fmt.Fprintf(&b, `<p><a href="%s">current SQL</a></p>`, sqlHref)
	b.WriteString(`</div></body></html>`)
	return b.String(), nil
}
