package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// contract is BENCHMARK.json as the benchmark's users read it.
type contract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesBenchmark holds BENCHMARK.json and the lists the
// benchmark prints from together: same workloads, same metrics, same units,
// directions and bounds.
func TestContractMatchesBenchmark(t *testing.T) {
	c := loadContract(t)
	if !reflect.DeepEqual(c.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n BENCHMARK.json %+v\n benchmark      %+v", c.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %+v\n benchmark      %+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, tracedDefs()) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %+v\n benchmark      %+v", c.PerLayer, tracedDefs())
	}
	for _, w := range c.Workloads {
		if drv, err := newDriver(w.Name, 1); err != nil || drv == nil {
			t.Errorf("workload %s of BENCHMARK.json cannot be run: %v", w.Name, err)
		}
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default window is %d", c.RunSeconds, defaultSeconds)
	}
}

// TestEveryMetricIsPrintedWithItsUnit emits both kinds of run and checks
// that each metric BENCHMARK.json names appears by name with its unit, and
// that the result object holds exactly those metrics.
func TestEveryMetricIsPrintedWithItsUnit(t *testing.T) {
	c := loadContract(t)
	for _, tc := range []struct {
		kind string
		defs []metricDef
	}{{"gated", c.EndToEnd}, {"traced", c.PerLayer}} {
		r := &report{header: "# incastbench workload=x", attempted: 3, values: map[string]float64{}}
		for i, d := range tc.defs {
			r.values[d.Name] = float64(i) + 0.5
		}
		var out bytes.Buffer
		if err := r.emit(&out, tc.defs, nil); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		printed := map[string]string{}
		for _, line := range lines[:len(lines)-1] {
			if f := strings.Fields(line); len(f) == 3 {
				printed[f[0]] = f[2]
			}
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", tc.kind, err)
		}
		if !res.Correct || res.Attempted != 3 || res.Failed != 0 {
			t.Errorf("%s: result %+v", tc.kind, res)
		}
		if len(res.Metrics) != len(tc.defs) {
			t.Errorf("%s: result holds %d metrics, want %d", tc.kind, len(res.Metrics), len(tc.defs))
		}
		for i, d := range tc.defs {
			if printed[d.Name] != d.Unit {
				t.Errorf("%s: %s printed with unit %q, want %q", tc.kind, d.Name, printed[d.Name], d.Unit)
			}
			if got := res.Metrics[d.Name]; got.Unit != d.Unit || got.Value != float64(i)+0.5 {
				t.Errorf("%s: result has %s = %+v", tc.kind, d.Name, got)
			}
		}
	}
}
