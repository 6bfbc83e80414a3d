package core

import (
	"fmt"
	"testing"

	"pi2/internal/catalog"
	"pi2/internal/dataset"
	"pi2/internal/workload"
)

// generationGolden pins, per built-in log, the final interface cost and the
// total MCTS iteration count of a default-config generation (search seed 1)
// on dataset.NewDB(). Search, mapping, cost and engine changes that alter
// which interface is generated, or how the search reaches it, show up here
// as a reviewed diff instead of passing silently.
var generationGolden = []struct {
	log        string
	cost       string // %.3f
	iterations int
	short      bool // also runs under -short
}{
	{"Explore", "1100.000", 95, true},
	{"Abstract", "1386.989", 102, false},
	{"Connect", "2100.000", 118, true},
	{"Filter", "5281.076", 98, false},
	{"SDSS", "3750.000", 137, false},
	{"Covid", "5769.421", 126, false},
	{"Sales", "4618.016", 103, false},
}

func TestGenerationGolden(t *testing.T) {
	logs := map[string]workload.Log{}
	for _, wl := range workload.All() {
		logs[wl.Name] = wl
	}
	for _, g := range generationGolden {
		g := g
		t.Run(g.log, func(t *testing.T) {
			if testing.Short() && !g.short {
				t.Skip("full suite only")
			}
			wl, ok := logs[g.log]
			if !ok {
				t.Fatalf("no built-in log %q", g.log)
			}
			db := dataset.NewDB()
			cfg := DefaultConfig()
			if cfg.Search.Seed != 1 {
				t.Fatalf("default search seed = %d, the golden assumes 1", cfg.Search.Seed)
			}
			res, err := Generate(wl.Queries, db, catalog.Build(db, dataset.Keys()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%.3f", res.Interface.Cost); got != g.cost {
				t.Errorf("cost = %s, golden %s", got, g.cost)
			}
			if res.Iterations != g.iterations {
				t.Errorf("iterations = %d, golden %d", res.Iterations, g.iterations)
			}
		})
	}
}
