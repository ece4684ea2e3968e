package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

func TestQuantileReportsCount(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if v, n := quantile(xs, c.q); v != c.want || n != 100 {
			t.Errorf("quantile(1..100, %v) = %v over %d, want %v over 100", c.q, v, n, c.want)
		}
	}
	if xs[0] != 100 {
		t.Errorf("quantile sorted its input in place")
	}
	if v, n := quantile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("quantile of no samples = %v over %d, want 0 over 0", v, n)
	}
	if v, n := quantile([]float64{7}, 0.99); v != 7 || n != 1 {
		t.Errorf("quantile of one sample = %v over %d, want 7 over 1", v, n)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 40}}, 70},
		{"hedged attempts overlap", []interval{{10, 40}, {30, 60}}, 50},
		{"hedge inside the first attempt", []interval{{10, 60}, {20, 30}}, 50},
		{"disjoint retries", []interval{{40, 50}, {10, 20}}, 80},
		{"losing hedge outlives the parent", []interval{{10, 20}, {90, 150}}, 80},
		{"child outside the parent", []interval{{120, 150}}, 100},
		{"children cover everything", []interval{{0, 60}, {50, 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRatioWithZeroBase(t *testing.T) {
	if v, ok := ratio(3, 0); ok || v != 0 {
		t.Errorf("ratio(3, 0) = %v, %v; want 0, false", v, ok)
	}
	if v, ok := ratio(0, 0); ok || v != 0 {
		t.Errorf("ratio(0, 0) = %v, %v; want 0, false", v, ok)
	}
	if v, ok := ratio(1, 4); !ok || v != 0.25 {
		t.Errorf("ratio(1, 4) = %v, %v; want 0.25, true", v, ok)
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the metrics and
// workloads this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		kind string
		got  []metric
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var defs []metric
		for _, d := range c.defs {
			defs = append(defs, metric{d.name, d.unit, d.better})
		}
		if !slices.Equal(c.got, defs) {
			t.Errorf("BENCHMARK.json %s\n %v\nprogram prints\n %v", c.kind, c.got, defs)
		}
	}
}

func TestWindowedQuantileTakesMedianWindow(t *testing.T) {
	calm := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 2}
	stalled := []float64{1, 1, 1, 1, 1, 1, 1, 1, 50, 90}
	v, n, _ := windowedQuantile([][]float64{calm, stalled, calm, nil}, 0.9)
	if v != 1 || n != 30 {
		t.Errorf("windowedQuantile = %v over %d, want 1 over 30: one stalled window must not set the figure", v, n)
	}
	if v, n, _ := windowedQuantile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("windowedQuantile of no windows = %v over %d, want 0 over 0", v, n)
	}
}
