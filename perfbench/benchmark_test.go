package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metrics
// the benchmark prints in step: the end-to-end list with --trace 0 and
// the per-layer list with --trace 1.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
	round := newTally()
	round.sections = []int64{1}
	rounds := []*tally{round}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]metric) {
		for _, m := range declared {
			p, ok := printed[m.Name]
			if !ok {
				t.Errorf("%s metric %s is declared but not printed", kind, m.Name)
			} else if p.Unit != m.Unit {
				t.Errorf("%s metric %s: declared unit %s, printed %s", kind, m.Name, m.Unit, p.Unit)
			}
			delete(printed, m.Name)
		}
		for name := range printed {
			t.Errorf("%s metric %s is printed but not declared", kind, name)
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd(rounds, time.Second))
	check("per-layer", spec.PerLayer, perLayer(rounds, newPhases(), map[string]time.Duration{}, &eventCounter{}))
}
