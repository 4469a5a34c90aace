package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// The metrics the program prints are the ones BENCHMARK.json declares,
// in the same order, with the same units and directions.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, program declares %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, program declares %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}

func TestBenchmarkJSONWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(f.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d characters)", w.Name, len(w.Why))
		}
	}
}

// The serve-burst rate the program uses is the one BENCHMARK.json records.
func TestServeBurstRateRecorded(t *testing.T) {
	f := readBenchmarkFile(t)
	want := fmt.Sprintf("Poisson %d jobs/s", serveBurstRate)
	for _, w := range f.Workloads {
		if w.Name == "serve-burst" && !strings.Contains(w.Why, want) {
			t.Errorf("serve-burst why %q does not record %q", w.Why, want)
		}
	}
}
