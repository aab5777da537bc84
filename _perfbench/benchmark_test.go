package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics this program reports, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		m := map[string]metricDef{}
		for _, d := range got {
			m[d.Name] = d
		}
		if len(m) != len(got) || len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics (%d distinct), program reports %d", what, len(got), len(m), len(want))
		}
		for _, d := range want {
			if m[d.Name] != d {
				t.Errorf("%s: BENCHMARK.json has %+v, program reports %+v", what, m[d.Name], d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
		if _, ok := tailP[w.Name]; !ok {
			t.Errorf("workload %q has no tail percentile", w.Name)
		}
	}
}
