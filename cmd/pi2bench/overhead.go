package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"pi2/internal/catalog"
	"pi2/internal/core"
	"pi2/internal/dataset"
	"pi2/internal/engine"
	"pi2/internal/iface"
	"pi2/internal/obs"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
	"pi2/internal/workload"
)

// exploreServing is the fixture of the overhead check: the generated
// Explore interface plus an interact closure that applies one pan event and
// re-executes the bound queries.
type exploreServing struct {
	ifc      *iface.Interface
	ctx      *transform.Context
	db       *engine.DB
	queries  int // len of the Explore log, for warm-up loop bounds
	interact func(*iface.Session, int) error
}

func newExploreServing() (*exploreServing, error) {
	wl := workload.Explore()
	edb := dataset.NewDB()
	ecat := catalog.Build(edb, dataset.Keys())
	res, err := core.Generate(wl.Queries, edb, ecat, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if len(res.Interface.VisInts) == 0 {
		return nil, fmt.Errorf("pi2bench: Explore interface has no visualization interactions")
	}
	asts, err := sqlparser.ParseAll(wl.Queries)
	if err != nil {
		return nil, err
	}
	vi := res.Interface.VisInts[0]
	srcElem := res.Interface.Vis[vi.SourceVis].ElemID
	kind := string(vi.Kind)
	viewports := [][]string{
		{"50", "60", "27", "38"},
		{"60", "90", "16", "30"},
	}
	return &exploreServing{
		ifc:     res.Interface,
		ctx:     &transform.Context{Queries: asts, Cat: ecat},
		db:      edb,
		queries: len(wl.Queries),
		interact: func(sess *iface.Session, i int) error {
			if err := sess.Brush(srcElem, kind, viewports[i%2]...); err != nil {
				return err
			}
			_, err := sess.Results()
			return err
		},
	}, nil
}

// servingInstruments is the exact per-request metric set the serving
// middleware records on the hot path: one in-flight gauge and one latency
// histogram (the request counter is derived from the histogram's count at
// scrape time, so it costs nothing per request). The overhead contract
// (-overhead-check, CI) is about this recording cost — tracing spans live
// only on the HTTP path where a request's own work amortizes them.
type servingInstruments struct {
	inFlight *obs.Gauge
	lat      *obs.Histogram
}

func newServingInstruments() *servingInstruments {
	m := obs.NewRegistry()
	return &servingInstruments{
		inFlight: m.Gauge("bench_in_flight", "bench"),
		lat:      m.Histogram("bench_request_seconds", "bench", nil, "path", "/interact"),
	}
}

// interact runs one session interaction wrapped in the middleware's metric
// writes, inlined exactly as the middleware performs them (no per-op
// closure — the handler chain is built once, not per request).
func (si *servingInstruments) interact(es *exploreServing, sess *iface.Session, i int) error {
	t0 := obs.NowMono()
	si.inFlight.Inc()
	err := es.interact(sess, i)
	si.inFlight.Dec()
	si.lat.ObserveDuration(obs.NowMono() - t0)
	return err
}

// runOverheadCheck is the CI guard: it measures the cached session
// interaction with metrics recording off and on and errors when the
// instrumented path exceeds maxRatio times the disabled path.
//
// The op's absolute timing is bimodal on shared CI hardware (frequency and
// cache modes swing it by more than the overhead being measured), so the
// two variants must be compared under the same conditions: each round
// alternates small batches of disabled and instrumented ops so both sample
// the same machine state, yielding one paired ratio per round, and the
// median ratio across rounds discards the rounds a scheduler hiccup still
// skews.
func runOverheadCheck(maxRatio float64) error {
	es, err := newExploreServing()
	if err != nil {
		return err
	}
	sess, err := iface.NewSession(es.ifc, es.ctx, es.db)
	if err != nil {
		return err
	}
	for i := 0; i < es.queries; i++ {
		if err := es.interact(sess, i); err != nil {
			return err
		}
	}
	si := newServingInstruments()

	const rounds, batches, batch = 9, 12, 125
	runBatch := func(instrumented bool) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			var err error
			if instrumented {
				err = si.interact(es, sess, i)
			} else {
				err = es.interact(sess, i)
			}
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	measureRound := func() (off, on time.Duration, err error) {
		for b := 0; b < batches; b++ {
			// Alternate which variant runs first so neither systematically
			// inherits the other's cache state.
			var d0, d1 time.Duration
			first := b%2 == 1
			if d0, err = runBatch(first); err != nil {
				return
			}
			if d1, err = runBatch(!first); err != nil {
				return
			}
			if first {
				on, off = on+d0, off+d1
			} else {
				off, on = off+d0, on+d1
			}
		}
		return
	}

	type round struct {
		off, on time.Duration
		ratio   float64
	}
	// One pass: paired rounds spaced ~100ms apart (the machine's fast/slow
	// modes persist for seconds, so back-to-back rounds would all sample
	// the same mode), summarized by the median ratio.
	measurePass := func() (round, error) {
		if _, _, err := measureRound(); err != nil { // warm-up
			return round{}, err
		}
		rs := make([]round, rounds)
		for r := range rs {
			if r > 0 {
				time.Sleep(100 * time.Millisecond)
			}
			off, on, err := measureRound()
			if err != nil {
				return round{}, err
			}
			rs[r] = round{off: off, on: on, ratio: float64(on) / float64(off)}
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].ratio < rs[j].ratio })
		return rs[len(rs)/2], nil
	}

	// The overhead is a fixed property of the code; run-to-run noise only
	// obscures it. A pass whose median lands in budget is evidence enough,
	// so the gate takes up to three passes before declaring a regression.
	const attempts = 3
	perOp := func(d time.Duration) time.Duration { return d / (batches * batch) }
	best := math.Inf(1)
	for a := 1; a <= attempts; a++ {
		med, err := measurePass()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stdout, "overhead-check: disabled %v/op, metrics %v/op, ratio %.4f (max %.2f, median of %d paired rounds, pass %d/%d)\n",
			perOp(med.off), perOp(med.on), med.ratio, maxRatio, rounds, a, attempts)
		if med.ratio <= maxRatio {
			return nil
		}
		best = math.Min(best, med.ratio)
	}
	return fmt.Errorf("pi2bench: metrics overhead %.2f%% exceeds %.2f%% budget in %d passes",
		(best-1)*100, (maxRatio-1)*100, attempts)
}
