package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	dt "pi2/internal/difftree"
	"pi2/internal/engine"
	"pi2/internal/iface"
	"pi2/internal/ingest"
	"pi2/internal/sqlparser"
	"pi2/internal/vis"
	"pi2/internal/widget"
)

// sessionKey addresses the client's session explicitly, as cookie-less
// clients of pi2serve do.
const sessionKey = "perfbench"

const (
	burstLen     = 5   // moves on one widget or chart in a row, unless spec.chartBurst says otherwise
	revisitShare = 0.1 // share of a burst's later moves that return to an earlier state of the burst
	checkEvery   = 100 // one event in this many is compared with the interpreter
)

// served is one generated interface behind its own pi2serve handler.
type served struct {
	gen     *generated
	db      *engine.DB
	reg     *iface.Registry
	handler http.Handler
	replay  *iface.Registry // traced runs: a mirror registry the replays drive
}

// newRegistry wires a serving registry exactly as cmd/pi2serve does: per-user
// sessions from one generated interface, all sharing one plan cache.
func newRegistry(g *generated, db *engine.DB) *iface.Registry {
	pc := iface.NewPlanCache()
	return iface.NewRegistry(func() (*iface.Session, error) {
		return iface.NewSessionWithPlans(g.res.Interface, g.ctx, db, pc)
	}, iface.RegistryOptions{MaxSessions: iface.DefaultMaxSessions, TTL: 30 * time.Minute, Plans: pc})
}

// target is one manipulation a pi2serve page offers: a widget form or a
// chart interaction, with a generator of fresh values for it.
type target struct {
	srv   *served
	path  string     // "/widget" or "/interact"
	fixed url.Values // id, or vis and kind
	tree  int        // the Difftree it rebinds
	moves int        // moves per burst
	fresh func(r *rand.Rand) url.Values
}

// targets lists the manipulations of an interface that the client drives:
// toggles, enumerating widgets, sliders, range sliders, and brushes, pans
// and zooms whose target binds only VAL nodes. Numeric bounds start from
// an input query's binding, moved and resized at random, so most states are
// new; string bounds (dates) replay an input query's values.
func targets(s *served, w spec) []*target {
	ifc, ctx, zoom := s.gen.res.Interface, s.gen.ctx, w.zoom
	bases := func(tree, node int) [][]string {
		t := ifc.State.Trees[tree]
		n := t.Root.Find(node)
		qb, ok := t.Bind(ctx)
		if n == nil || !ok {
			return nil
		}
		var vals []*dt.Node
		for _, c := range n.ChoiceNodes() {
			switch {
			case c.Kind == dt.KindVal:
				vals = append(vals, c)
			case c.Kind == dt.KindOpt && c == n:
			default:
				return nil
			}
		}
		var out [][]string
		for _, b := range qb.PerQuery {
			if n.Kind == dt.KindOpt && !b[n.ID].Present {
				continue
			}
			lits := make([]string, len(vals))
			for i, v := range vals {
				bv, ok := b[v.ID]
				if !ok {
					lits = nil
					break
				}
				lits[i] = bv.Lit
			}
			if len(lits) > 0 {
				out = append(out, lits)
			}
		}
		return out
	}
	move := func(r *rand.Rand, lits []string, lo, hi float64) []string {
		out := append([]string(nil), lits...)
		for i := 0; i+1 < len(out); i += 2 {
			a, err1 := strconv.ParseFloat(out[i], 64)
			b, err2 := strconv.ParseFloat(out[i+1], 64)
			if err1 != nil || err2 != nil || a > b {
				continue
			}
			w := b - a
			if w == 0 {
				w = 1
			}
			c := (a+b)/2 + (2*r.Float64()-1)*w
			w *= zoom[0] + r.Float64()*(zoom[1]-zoom[0])
			a, b = round4(c-w/2), round4(c+w/2)
			if lo < hi { // a range slider keeps to its domain
				a, b = max(a, lo), min(b, hi)
				if a > b {
					a, b = lo, hi
				}
			}
			out[i], out[i+1] = fmtNum(a), fmtNum(b)
		}
		return out
	}

	var out []*target
	for i := range ifc.Widgets {
		wd := &ifc.Widgets[i]
		t := &target{srv: s, path: "/widget", fixed: url.Values{"id": {wd.ElemID}}, tree: wd.Tree, moves: burstLen}
		switch wd.Kind {
		case widget.Toggle:
			t.fresh = func(r *rand.Rand) url.Values { return url.Values{"on": {strconv.FormatBool(r.Intn(2) == 0)}} }
		case widget.Radio, widget.Dropdown, widget.Button:
			n := len(wd.Options)
			if node := ifc.State.Trees[wd.Tree].Root.Find(wd.NodeID); node != nil && node.Kind == dt.KindAny {
				n = min(n, len(node.Children))
			}
			if n == 0 {
				continue
			}
			t.fresh = func(r *rand.Rand) url.Values { return url.Values{"option": {strconv.Itoa(r.Intn(n))}} }
		case widget.Slider:
			lo, hi := wd.Min, wd.Max
			t.fresh = func(r *rand.Rand) url.Values {
				return url.Values{"value": {fmtNum(round4(lo + r.Float64()*(hi-lo)))}}
			}
		case widget.RangeSlider:
			bs := bases(wd.Tree, wd.NodeID)
			if len(bs) == 0 || len(bs[0]) != 2 {
				continue
			}
			lo, hi := wd.Min, wd.Max
			t.fresh = func(r *rand.Rand) url.Values {
				v := move(r, bs[r.Intn(len(bs))], lo, hi)
				return url.Values{"lo": {v[0]}, "hi": {v[1]}}
			}
		default:
			continue
		}
		out = append(out, t)
	}
	seen := map[string]bool{}
	for _, vi := range ifc.VisInts {
		src := ifc.Vis[vi.SourceVis].ElemID
		key := src + "/" + string(vi.Kind)
		if seen[key] { // /interact addresses the first interaction of a kind on a chart
			continue
		}
		seen[key] = true
		switch vi.Kind {
		case vis.BrushX, vis.BrushY, vis.BrushXY, vis.Pan, vis.Zoom:
		default:
			continue
		}
		bs := bases(vi.Tree, vi.NodeID)
		if len(bs) == 0 {
			continue
		}
		moves := burstLen
		if w.chartBurst > 0 {
			moves = w.chartBurst
		}
		out = append(out, &target{srv: s, path: "/interact", tree: vi.Tree, moves: moves,
			fixed: url.Values{"vis": {src}, "kind": {string(vi.Kind)}},
			fresh: func(r *rand.Rand) url.Values {
				return url.Values{"bounds": {strings.Join(move(r, bs[r.Intn(len(bs))], 0, 0), ",")}}
			}})
	}
	return out
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// client is the single closed-loop user: it makes a burst of moves on one
// manipulation, sometimes returning to a state it already visited in the
// burst, then moves on. It visits the manipulations in seeded rounds, each
// once per round, so every run drives the same mix.
type client struct {
	r       *rand.Rand
	targets []*target
	round   []int
	cur     *target
	burst   []url.Values
	left    int
}

func (c *client) next() (*target, url.Values) {
	if c.left == 0 {
		if len(c.round) == 0 {
			c.round = c.r.Perm(len(c.targets))
		}
		c.cur, c.burst = c.targets[c.round[0]], c.burst[:0]
		c.left = c.cur.moves
		c.round = c.round[1:]
	}
	c.left--
	if len(c.burst) > 0 && c.r.Float64() < revisitShare {
		return c.cur, c.burst[c.r.Intn(len(c.burst))]
	}
	f := c.cur.fresh(c.r)
	c.burst = append(c.burst, f)
	return c.cur, f
}

func okStatus(code int) bool { return code >= 200 && code < 400 }

// serve runs the client against the generated interfaces for the given
// number of events, then (for the read-only workloads) a closing burst of
// /ingest batches.
func (p *phase) serve(e *env, gens []*generated, events int) error {
	r := rand.New(rand.NewSource(p.o.seed))
	var srvs []*served
	var all []*target
	for _, g := range gens {
		reg := newRegistry(g, e.db)
		s := &served{gen: g, db: e.db, reg: reg, handler: iface.NewRegistryServer(reg).WithIngest(e.db).Handler()}
		if p.tr != nil {
			s.replay = newRegistry(g, e.db)
		}
		srvs = append(srvs, s)
		all = append(all, targets(s, p.w)...)
	}
	if len(all) == 0 {
		return fmt.Errorf("%s: the generated interfaces offer no manipulation to drive", p.o.workload)
	}
	ing := newIngester(p, e, rand.New(rand.NewSource(p.o.seed+1)))
	c := &client{r: r, targets: all}
	idx0, col0, app0 := e.db.IndexCounters(), e.db.ColumnarCounters(), e.db.AppendCounters()
	// Writes fall on every writeEvery-th operation from a seeded offset, so
	// each run makes the same number of them.
	offset := 0
	if p.w.writeEvery > 0 {
		offset = r.Intn(p.w.writeEvery)
	}
	for n, op := 0, 0; n < events; op++ {
		if p.w.writeEvery > 0 && op%p.w.writeEvery == offset {
			ing.batch(srvs[0].handler)
			continue
		}
		t, f := c.next()
		p.event(t, f, r.Intn(checkEvery) == 0)
		n++
	}
	if p.w.writeEvery == 0 {
		burst := burstBatches
		if p.o.short {
			burst = shortBurst
		}
		p.heapCheckpoint() // every burst starts at the same point of the GC cycle
		for i := 0; i < burst; i++ {
			ing.batch(srvs[0].handler)
		}
	}
	p.engineLayers(e.db, idx0, col0, app0)
	p.ifaceLayers(srvs)
	return nil
}

// event performs one manipulation and the page load that follows it, the
// pair a pi2serve user waits for, and when check is set compares the served
// results with the interpreter off the clock.
func (p *phase) event(t *target, f url.Values, check bool) {
	form := url.Values{"session": {sessionKey}}
	for k, v := range t.fixed {
		form[k] = v
	}
	for k, v := range f {
		form[k] = v
	}
	post := httptest.NewRequest(http.MethodPost, t.path, strings.NewReader(form.Encode()))
	post.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	get := httptest.NewRequest(http.MethodGet, "/?session="+sessionKey, nil)
	w1, w2 := httptest.NewRecorder(), httptest.NewRecorder()

	p.ops.attempted++
	ev := p.tr.beginEvent()
	root := p.tr.begin("event", -1)
	sp := p.tr.begin("http.post", root)
	t0 := time.Now()
	t.srv.handler.ServeHTTP(w1, post)
	p.tr.end(sp)
	sp = p.tr.begin("http.get", root)
	t.srv.handler.ServeHTTP(w2, get)
	d := time.Since(t0)
	p.tr.end(sp)
	p.tr.end(root)
	p.events = append(p.events, float64(d)/1e6)

	switch {
	case !okStatus(w1.Code):
		p.ops.fail("%s %s: status %d", t.path, form.Encode(), w1.Code)
	case !okStatus(w2.Code) || w2.Body.Len() == 0:
		p.ops.fail("GET / after %s %s: status %d, %d bytes", t.path, form.Encode(), w2.Code, w2.Body.Len())
	case check:
		t0, c0 := time.Now(), t.srv.reg.Stats().Cache
		p.aside(t.srv.db, func() {
			if err := checkInterpreter(t.srv); err != nil {
				p.ops.fail("%s %s: %v", t.path, form.Encode(), err)
			}
		})
		c1 := t.srv.reg.Stats().Cache
		p.checkTime += time.Since(t0)
		p.checkCache.Add(iface.CacheStats{
			ResultHits: c1.ResultHits - c0.ResultHits, ResultMisses: c1.ResultMisses - c0.ResultMisses,
			PlanHits: c1.PlanHits - c0.PlanHits, PlanMisses: c1.PlanMisses - c0.PlanMisses,
			Invalidations: c1.Invalidations - c0.Invalidations,
		})
	}
	if p.tr != nil {
		p.aside(t.srv.db, func() { p.replayEvent(ev, t, f) })
	}
}

// checkInterpreter compares every tree's served result with the reference
// interpreter (engine.Exec) on the session's current SQL.
func checkInterpreter(s *served) error {
	sess, ok := s.reg.Lookup(sessionKey)
	if !ok {
		return fmt.Errorf("session %q missing", sessionKey)
	}
	got, err := sess.Results()
	if err != nil {
		return err
	}
	for ti, ts := range sess.CurrentSQLAll() {
		if ts.Err != nil {
			return ts.Err
		}
		ast, err := sqlparser.Parse(ts.SQL)
		if err != nil {
			return err
		}
		want, err := interpret(sess.DB, ast)
		if err != nil {
			return err
		}
		if !sameRows(got[ti], want) {
			return fmt.Errorf("tree %d: served %d rows, interpreter %d rows for %s",
				ti, len(got[ti].Rows), len(want.Rows), ts.SQL)
		}
	}
	return nil
}

// sameRows compares two results as multisets of rows.
func sameRows(a, b *engine.Table) bool {
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	keys := func(t *engine.Table) []string {
		out := make([]string, len(t.Rows))
		for i, row := range t.Rows {
			var sb strings.Builder
			for _, v := range row {
				switch {
				case v.Null:
					sb.WriteString("\x00N")
				case v.IsStr:
					sb.WriteString("\x00S" + v.Str)
				default:
					sb.WriteString("\x00F" + strconv.FormatFloat(v.Num, 'g', -1, 64))
				}
			}
			out[i] = sb.String()
		}
		sort.Strings(out)
		return out
	}
	ka, kb := keys(a), keys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// ingester makes /ingest batches: new spectra of already imaged galaxies
// for the sky tables, or copies of existing rows for the paper tables.
type ingester struct {
	p        *phase
	db       *engine.DB
	r        *rand.Rand
	tables   []string
	next     int
	galaxies int            // sky: new spectra observe existing galaxies
	want     map[string]int // acknowledged row count per table
	side     *engine.DB     // traced runs: the DB engine.append replays on
}

func newIngester(p *phase, e *env, r *rand.Rand) *ingester {
	g := &ingester{p: p, db: e.db, r: r, want: map[string]int{}}
	if p.w.paper {
		g.tables = e.db.TableNames()
	} else {
		g.tables = []string{"specObj"}
		t, _ := e.db.Table("galaxy")
		g.galaxies = len(t.Rows)
	}
	if p.tr != nil {
		g.side = engine.NewDB(e.db.Now)
	}
	for _, name := range g.tables {
		t, _ := e.db.Table(name)
		g.want[name] = len(t.Rows)
		if g.side != nil {
			// A copy with its own row slice, so replayed appends never touch
			// the served table's backing array.
			g.side.Add(&engine.Table{Name: t.Name, Cols: t.Cols, Types: t.Types,
				Rows: append([][]engine.Value(nil), t.Rows...)})
		}
	}
	return g
}

func (g *ingester) rows(name string) [][]engine.Value {
	if g.p.w.paper {
		t, _ := g.db.Table(name)
		out := make([][]engine.Value, batchRows)
		for i := range out {
			out[i] = append([]engine.Value(nil), t.Rows[g.r.Intn(len(t.Rows))]...)
		}
		return out
	}
	_, spec := skyRows(g.r, 0, batchRows)
	for _, row := range spec {
		row[0] = engine.NumVal(float64(skyFirstID + g.r.Intn(g.galaxies)))
	}
	return spec
}

// batch posts one /ingest batch and checks that the acknowledged rows are
// visible in the table.
func (g *ingester) batch(h http.Handler) {
	p := g.p
	name := g.tables[g.next%len(g.tables)]
	g.next++
	t, _ := g.db.Table(name)
	body := ndjson(t.Cols, g.rows(name))
	req := httptest.NewRequest(http.MethodPost, "/ingest?table="+url.QueryEscape(name), bytes.NewReader(body))
	w := httptest.NewRecorder()

	p.ops.attempted++
	p.tr.beginEvent()
	sp := p.tr.begin("http.ingest", -1)
	t0 := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(t0)
	p.tr.end(sp)
	p.ingest = append(p.ingest, float64(d)/1e6)

	var ack struct{ Rows int }
	if !okStatus(w.Code) || json.Unmarshal(w.Body.Bytes(), &ack) != nil {
		p.ops.fail("POST /ingest?table=%s: status %d: %s", name, w.Code, w.Body.String())
		return
	}
	g.want[name] += ack.Rows
	if t, _ := g.db.Table(name); ack.Rows != batchRows || len(t.Rows) != g.want[name] {
		p.ops.fail("ingest %s: acknowledged %d of %d rows, table has %d rows, want %d",
			name, ack.Rows, batchRows, len(t.Rows), g.want[name])
	}
	if g.side != nil {
		g.replay(name, body)
	}
}

// replay times ingest.DecodeRows and DB.Append on the batch, the two calls
// the /ingest handler makes, against the side copy of the table.
func (g *ingester) replay(name string, body []byte) {
	t, _ := g.side.Table(name)
	sp := g.p.tr.begin("ingest.decode", -1)
	rows, err := ingest.DecodeRows(bytes.NewReader(body), t)
	g.p.tr.end(sp)
	if err != nil {
		g.p.ops.fail("replay ingest.DecodeRows %s: %v", name, err)
		return
	}
	sp = g.p.tr.begin("engine.append", -1)
	err = g.side.Append(name, rows)
	g.p.tr.end(sp)
	if err != nil {
		g.p.ops.fail("replay DB.Append %s: %v", name, err)
	}
}

// replayEvent repeats the event's calls one layer down, against the mirror
// registry: Registry.Acquire, the Session binding call, Session.Results,
// RenderHTML on the now warm session, and engine.Prepare and Plan.Exec on
// the rebound tree's SQL. The mirror sees the same manipulations in the
// same order as the served session, so its caches hit and miss alike.
func (p *phase) replayEvent(ev int64, t *target, f url.Values) {
	s := t.srv
	sp := p.tr.begin("iface.acquire", -1)
	sess, err := s.replay.Acquire(sessionKey)
	p.tr.end(sp)
	if err != nil {
		p.ops.fail("replay Acquire: %v", err)
		return
	}
	sp = p.tr.begin("iface.bind", -1)
	err = bind(sess, t, f)
	p.tr.end(sp)
	if err == nil {
		sp = p.tr.begin("iface.results", -1)
		_, err = sess.Results()
		p.tr.end(sp)
	}
	if err == nil {
		sp = p.tr.begin("iface.render", -1)
		_, err = iface.RenderHTML(sess)
		p.tr.end(sp)
	}
	var sql string
	if err == nil {
		sql, err = sess.CurrentSQL(t.tree)
	}
	var ast *dt.Node
	if err == nil {
		ast, err = sqlparser.Parse(sql)
	}
	var plan *engine.Plan
	if err == nil {
		sp = p.tr.begin("engine.prepare", -1)
		plan, err = engine.Prepare(sess.DB, ast)
		p.tr.end(sp)
	}
	if err == nil {
		sp = p.tr.begin("engine.exec", -1)
		_, err = plan.Exec()
		p.tr.end(sp)
	}
	if err != nil {
		p.ops.fail("replay of event %d: %v", ev, err)
	}
}

// bind applies a manipulation through the Session method its HTTP form
// reaches.
func bind(s *iface.Session, t *target, f url.Values) error {
	num := func(k string) float64 { v, _ := strconv.ParseFloat(f.Get(k), 64); return v }
	id := t.fixed.Get("id")
	switch {
	case t.path == "/interact":
		return s.Brush(t.fixed.Get("vis"), t.fixed.Get("kind"), strings.Split(f.Get("bounds"), ",")...)
	case f.Has("on"):
		return s.SetToggle(id, f.Get("on") == "true")
	case f.Has("option"):
		o, _ := strconv.Atoi(f.Get("option"))
		return s.SetOption(id, o)
	case f.Has("value"):
		return s.SetSlider(id, num("value"))
	case f.Has("lo"):
		return s.SetRange(id, num("lo"), num("hi"))
	}
	return fmt.Errorf("no binding call for %v", f)
}
