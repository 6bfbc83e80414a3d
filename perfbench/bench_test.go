package main

import (
	"encoding/json"
	"os"
	"testing"

	"pi2/internal/engine"
	"pi2/internal/sqlparser"
)

// manifest is the part of BENCHMARK.json the self-check compares against.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestShortRunEmitsEveryMetric runs every workload in short mode, untraced
// and traced, and checks that each reports exactly the metrics
// BENCHMARK.json names, with their units, and passes its correctness gate.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		for _, trace := range []bool{false, true} {
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			rep, err := run(options{workload: w.Name, seed: 3, seconds: 1, trace: trace, short: true, traceOut: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, x := range want {
				got, ok := rep.Metrics[x.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, x.Name)
				case got.Unit != x.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w.Name, trace, x.Name, got.Unit, x.Unit)
				}
			}
		}
	}
}

// TestGateRejectsWrongCost checks that the correctness gate fails a run
// whose generated interface misses its pinned cost.
func TestGateRejectsWrongCost(t *testing.T) {
	pinned := map[string]float64{"Explore": 1100, "Abstract": 1386.989}
	rep, err := run(options{workload: "gen-paper", seed: 1, seconds: 1, short: true, pinned: pinned})
	if err != nil || !rep.Correct {
		t.Fatalf("with the true costs: err=%v report=%+v", err, rep)
	}
	pinned["Abstract"] = 1386.99
	rep, err = run(options{workload: "gen-paper", seed: 1, seconds: 1, short: true, pinned: pinned})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != 1 {
		t.Errorf("wrong pinned cost: correct=%v failed=%d, want false and 1", rep.Correct, rep.Failed)
	}
}

// TestInterpretMatchesFullCrossProduct checks the reduced-database
// shortcut against the interpreter's own cross product on tables small
// enough for it.
func TestInterpretMatchesFullCrossProduct(t *testing.T) {
	db := newSkyDB(5, 400)
	wide := []string{
		`SELECT gal.objID, s.ra FROM galaxy AS gal, specObj AS s WHERE gal.objID = s.bestObjID AND gal.u > 20 AND s.dec < 0`,
		`SELECT count(*) FROM galaxy AS gal, specObj AS s WHERE s.z BETWEEN 0.1 AND 0.2`,
		`SELECT DISTINCT gal.objID, s.z FROM galaxy AS gal, specObj AS s WHERE s.bestObjID = gal.objID AND s.ra BETWEEN 185 AND 195`,
	}
	for i, sql := range append(wide, skyLog...) {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Exec(db, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := interpret(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(got, want) || (i < len(wide) && len(want.Rows) == 0) {
			t.Errorf("%s: reduced %d rows, full %d rows", sql, len(got.Rows), len(want.Rows))
		}
	}
}

// TestTracedEngineCountersMatchUntraced checks that the engine counters of
// a traced phase leave out its checks and replays: served the same events,
// the traced and the untraced phase count the same engine work.
func TestTracedEngineCountersMatchUntraced(t *testing.T) {
	o := options{workload: "sky-append", seed: 3, seconds: 1, trace: true, short: true, traceOut: t.TempDir()}
	plain, err := runPhase(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runPhase(o, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine.index_builds", "engine.index_hits", "engine.stats_builds",
		"engine.column_builds", "engine.batches", "engine.table_invalidations"} {
		if a, b := plain.layers[name], traced.layers[name]; a != b {
			t.Errorf("%s: untraced %v, traced %v", name, a.Value, b.Value)
		}
	}
	if plain.layers["engine.index_hits"].Value == 0 {
		t.Error("engine.index_hits is 0: the served events used no index")
	}
}
