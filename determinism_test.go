package pi2

import (
	"bytes"
	"testing"

	"pi2/internal/dataset"
	"pi2/internal/iface"
	"pi2/internal/workload"
)

// TestSameSeedByteIdenticalInterface: with the shared cross-worker caches
// and multiple parallel workers, repeat runs under one seed must produce
// byte-identical interfaces — rendered text and JSON spec.
// This is the determinism contract the search-side caches must not break.
func TestSameSeedByteIdenticalInterface(t *testing.T) {
	logs := []workload.Log{workload.Explore(), workload.Connect()}
	if !testing.Short() {
		// The slower paper workloads ride in the full suite: Covid and SDSS
		// exercise grouping, joins and the engine's operator pipeline end
		// to end.
		logs = append(logs, workload.Covid(), workload.SDSS())
	}
	for _, wl := range logs {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			render := func() (string, []byte) {
				db := dataset.NewDB()
				gen := NewGenerator(db, dataset.Keys())
				gen.Config.Search.Workers = 3
				gen.Config.Search.SyncInterval = 5
				gen.Config.Search.MaxIterations = 120
				res, err := gen.Generate(wl.Queries)
				if err != nil {
					t.Fatal(err)
				}
				js, err := iface.MarshalJSON(res.Interface)
				if err != nil {
					t.Fatal(err)
				}
				return iface.RenderText(res.Interface), js
			}
			text1, js1 := render()
			text2, js2 := render()
			if text1 != text2 {
				t.Errorf("rendered text differs between same-seed runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", text1, text2)
			}
			if !bytes.Equal(js1, js2) {
				t.Errorf("JSON spec differs between same-seed runs")
			}
		})
	}
}
