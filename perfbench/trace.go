package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	dt "pi2/internal/difftree"
	"pi2/internal/engine"
	"pi2/internal/iface"
	"pi2/internal/mapping"
	"pi2/internal/obs"
	"pi2/internal/schema"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
)

// span is one timed call, recorded by the benchmark around a call into the
// program. Spans of one client operation share Event; Parent indexes the
// enclosing span (-1 for none).
type span struct {
	Event  int64  `json:"event"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until write. Every
// method is a no-op on a nil tracer, so untraced runs share the code.
type tracer struct {
	t0    time.Time
	event int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginEvent starts a new client operation and returns its id.
func (t *tracer) beginEvent() int64 {
	if t == nil {
		return 0
	}
	t.event++
	return t.event
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Event: t.event, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// adopt copies the phase spans core.GenerateCtx recorded in otr under the
// benchmark's span for that call.
func (t *tracer) adopt(otr *obs.Trace, parent int) {
	if t == nil || otr == nil {
		return
	}
	base := t.spans[parent].Start
	for _, s := range otr.Spans() {
		t.spans = append(t.spans, span{Event: t.event, Name: s.Name, Parent: parent,
			Start: base + int64(s.Start), End: base + int64(s.Start+s.Dur)})
	}
}

// durations returns the duration of every span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines under o.traceOut.
func (t *tracer) write(o options) (err error) {
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// genLayers sums what the program's own generation instrumentation
// (obs.Trace spans and timers) recorded over a phase's generation passes.
type genLayers struct {
	iterations  int
	spans       map[string]time.Duration
	timers      map[string]obs.TimerStat
	replayAlloc map[string]float64
}

func (g *genLayers) add(otr *obs.Trace, iterations int) {
	if otr == nil {
		return
	}
	if g.spans == nil {
		g.spans, g.timers = map[string]time.Duration{}, map[string]obs.TimerStat{}
	}
	g.iterations += iterations
	for _, s := range otr.Spans() {
		g.spans[s.Name] += s.Dur
	}
	for name, ts := range otr.Timers() {
		cur := g.timers[name]
		cur.Count += ts.Count
		cur.Total += ts.Total
		g.timers[name] = cur
	}
}

// replayGeneration times the generation layers' entry points one call at a
// time on each log's final state: sqlparser.ParseAll, transform.Applicable,
// difftree.BindAll and schema.InferResultSchema per tree, mapping.Analyze,
// and mapping.Greedy (which runs layout and cost) with a warm safety-check
// cache.
func (p *phase) replayGeneration(e *env, gens []*generated) {
	allocs := map[string][2]float64{} // name -> mallocs, calls
	timed := func(name string, fn func()) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		const reps = 5
		for i := 0; i < reps; i++ {
			sp := p.tr.begin(name, -1)
			fn()
			p.tr.end(sp)
		}
		runtime.ReadMemStats(&ms)
		a := allocs[name]
		allocs[name] = [2]float64{a[0] + float64(ms.Mallocs-m0), a[1] + reps}
	}
	for _, g := range gens {
		state, ctx := g.res.State, g.ctx
		p.tr.beginEvent()
		timed("sqlparser.parse", func() { sqlparser.ParseAll(g.log.Queries) })
		timed("transform.applicable", func() { transform.Applicable(state, ctx) })
		for _, t := range state.Trees {
			qs := t.QueryASTs(ctx)
			timed("difftree.bindall", func() { dt.BindAll(t.Root, qs) })
			timed("schema.infer", func() { schema.InferResultSchema(qs, e.cat) })
		}
		sa, err := mapping.Analyze(state, ctx)
		if err != nil {
			p.ops.fail("replay mapping.Analyze %s: %v", g.log.Name, err)
			continue
		}
		timed("mapping.analyze", func() { mapping.Analyze(state, ctx) })
		opts := mapping.DefaultOptions()
		opts.Exec = mapping.NewExecCache(e.db)
		if _, ok := mapping.Greedy(sa, e.db, opts); !ok {
			p.ops.fail("replay mapping.Greedy %s: no interface", g.log.Name)
			continue
		}
		timed("mapping.greedy", func() { mapping.Greedy(sa, e.db, opts) })
	}
	p.gl.replayAlloc = map[string]float64{}
	for name, a := range allocs {
		p.gl.replayAlloc[name] = a[0] / a[1]
	}
}

// aside runs fn, a check or a replay that shares the served database, and
// keeps the engine counter traffic it causes out of engineLayers.
func (p *phase) aside(db *engine.DB, fn func()) {
	idx0, col0 := db.IndexCounters(), db.ColumnarCounters()
	fn()
	idx, col := db.IndexCounters(), db.ColumnarCounters()
	p.asideIdx.Builds += idx.Builds - idx0.Builds
	p.asideIdx.Hits += idx.Hits - idx0.Hits
	p.asideIdx.StatsBuilds += idx.StatsBuilds - idx0.StatsBuilds
	p.asideCol.ColumnBuilds += col.ColumnBuilds - col0.ColumnBuilds
	p.asideCol.Batches += col.Batches - col0.Batches
}

// engineLayers records the engine's counter deltas over the serving phase,
// less those of the checks and replays. It runs in untraced phases too, so
// the two can be compared.
func (p *phase) engineLayers(db *engine.DB, idx0 engine.IndexCounters, col0 engine.ColumnarCounters, app0 engine.AppendCounters) {
	idx, col, app := db.IndexCounters(), db.ColumnarCounters(), db.AppendCounters()
	a, b := p.asideIdx, p.asideCol
	count := func(name string, v uint64) { p.layers[name] = metric{float64(v), "count"} }
	count("engine.index_builds", idx.Builds-idx0.Builds-a.Builds)
	count("engine.index_hits", idx.Hits-idx0.Hits-a.Hits)
	count("engine.stats_builds", idx.StatsBuilds-idx0.StatsBuilds-a.StatsBuilds)
	count("engine.column_builds", col.ColumnBuilds-col0.ColumnBuilds-b.ColumnBuilds)
	count("engine.batches", col.Batches-col0.Batches-b.Batches)
	count("engine.table_invalidations", app.Invalidations-app0.Invalidations)
	count("engine.changelog_depth", app.ChangelogLen)
}

// ifaceLayers records the served registries' cache traffic, less that of
// the interpreter checks.
func (p *phase) ifaceLayers(srvs []*served) {
	if p.tr == nil {
		return
	}
	var c iface.CacheStats
	for _, s := range srvs {
		c.Add(s.reg.Stats().Cache)
	}
	k := p.checkCache
	rh, rm := c.ResultHits-k.ResultHits, c.ResultMisses-k.ResultMisses
	ph, pm := c.PlanHits-k.PlanHits, c.PlanMisses-k.PlanMisses
	ratio := func(hit, miss uint64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	p.layers["iface.result_hit_rate"] = metric{ratio(rh, rm), "ratio"}
	p.layers["iface.result_lookups"] = metric{float64(rh + rm), "count"}
	p.layers["iface.plan_hit_rate"] = metric{ratio(ph, pm), "ratio"}
	p.layers["iface.plan_lookups"] = metric{float64(ph + pm), "count"}
	p.layers["iface.invalidations"] = metric{float64(c.Invalidations - k.Invalidations), "count"}
}

// finishLayers turns the phase's spans, timers and replays into the
// per-layer metrics. Span-timed calls report their median duration.
func (p *phase) finishLayers() {
	if p.tr == nil {
		return
	}
	perCall := func(name, span string) {
		unit := name[strings.LastIndexByte(name, '_')+1:]
		scale := map[string]float64{"us": 1e3, "ms": 1e6, "s": 1e9}[unit]
		p.layers[name] = metric{median(p.tr.durations(span)) / scale, unit}
	}
	perCall("dataset.build_s", "dataset.build")
	perCall("catalog.build_s", "catalog.build")
	for _, n := range []string{"transform.applicable", "difftree.bindall", "schema.infer", "sqlparser.parse",
		"mapping.analyze", "mapping.greedy"} {
		perCall(n+"_us", n)
		p.layers[n+"_allocs"] = metric{p.gl.replayAlloc[n], "allocs"}
	}
	perCall("engine.prepare_us", "engine.prepare")
	perCall("engine.exec_ms", "engine.exec")
	perCall("engine.append_us", "engine.append")
	perCall("iface.acquire_us", "iface.acquire")
	perCall("iface.bind_us", "iface.bind")
	perCall("iface.results_ms", "iface.results")
	perCall("iface.render_ms", "iface.render")
	perCall("ingest.decode_us", "ingest.decode")

	// Generation layers, per pass. Timers are wall intervals summed over the
	// MCTS workers, which overlap in time: they do not add up to
	// gen_total_s.
	n := float64(max(len(p.passes), 1))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / n }
	p.layers["core.parse_ms"] = metric{ms(p.gl.spans["gen.parse"]), "ms"}
	p.layers["core.search_ms"] = metric{ms(p.gl.spans["gen.search"]), "ms"}
	p.layers["core.map_ms"] = metric{ms(p.gl.spans["gen.map"]), "ms"}
	p.layers["search.iterations"] = metric{float64(p.gl.iterations) / n, "count"}
	timer := func(count, total, timer string) {
		ts := p.gl.timers[timer]
		if count != "" {
			p.layers[count] = metric{float64(ts.Count) / n, "count"}
		}
		p.layers[total] = metric{ms(ts.Total), "ms"}
	}
	timer("search.rollouts", "search.rollout_ms", "search.rollout")
	timer("search.reward_calls", "search.reward_ms", "search.reward")
	timer("", "mapping.search_ms", "map.search")
	timer("", "mapping.layout_ms", "map.layout")
	timer("mapping.safety_execs", "mapping.safety_exec_ms", "safety.exec")
}
