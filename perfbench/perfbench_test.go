package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, on small
// inputs, and checks that each metric BENCHMARK.json names is reported
// with its unit and that the workload's oracle passed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
	for _, name := range []string{"ingest", "history", "tail"} {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				p := defaultParams(1, 1, t.TempDir())
				p.setups = 1
				// Enough history for one volume per shard of retired
				// entries, so setup's compaction has one to demote.
				p.histEntries = 120_000
				p.tailChurn = 12_000
				o, got, err := execute(context.Background(), name, p, traced)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range want {
					g, ok := got[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit)
					}
				}
				if len(got) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(got), len(want))
				}
				if o.attempted < 1 {
					t.Errorf("attempted %d ops", o.attempted)
				}
				if o.failed > 0 {
					t.Errorf("%d of %d ops failed: %v", o.failed, o.attempted, o.notes)
				}
			})
		}
	}
}
