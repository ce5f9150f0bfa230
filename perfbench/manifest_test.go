package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// Every workload BENCHMARK.json at the repository root declares must
// be runnable, and the result line must carry exactly the metrics it
// declares, in their units. serve-mixed runs but is not declared: it
// saturates both cores and did not hold its bound (README.md).
func TestResultLineMatchesManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var m struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	runnable := map[string]bool{}
	for _, w := range workloads {
		runnable[w.name] = true
	}
	for _, w := range m.Workloads {
		if !runnable[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %q, which perfbench does not run", w.Name)
		}
	}
	for _, c := range []struct {
		key  string
		got  []resultMetric
		want []named
	}{{"end_to_end", endToEnd, m.EndToEnd}, {"per_layer", perLayer, m.PerLayer}} {
		var got []named
		for _, r := range c.got {
			got = append(got, named{r.name, r.unit})
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: result line carries %v, BENCHMARK.json lists %v", c.key, got, c.want)
		}
	}
}
