package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// fakeRuns renders n runs per workload in the benchmark's output format, the
// gated metrics scaled by scale.
func fakeRuns(n int, scale float64) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		for _, w := range workloadDefs {
			r := &report{header: "# incastbench workload=" + w.Name + " seed=" + fmt.Sprint(i), attempted: 1,
				values: map[string]float64{"host.op_wall_ms_p50": 100}}
			for j, d := range endToEnd {
				r.values[d.Name] = scale * float64(j+1) * (1 + 0.001*float64(i))
			}
			r.emit(&b, endToEnd, hostDefs)
		}
	}
	return b.String()
}

func TestAgreeVerdicts(t *testing.T) {
	parse := func(s string) runSet {
		set, err := parseRuns(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	a := parse(fakeRuns(5, 1))
	if got := len(a["relay_stream"]["op_cost_p50"]); got != 5 {
		t.Fatalf("parsed %d runs of relay_stream, want 5", got)
	}
	var out bytes.Buffer
	if !agree(&out, a, parse(fakeRuns(5, 1.005))) {
		t.Errorf("sets 0.5%% apart disagree:\n%s", out.String())
	}
	// 30% worse is beyond every bound; 30% better is not a regression.
	if agree(&out, a, parse(fakeRuns(5, 1.3))) {
		t.Error("a set 30% worse agrees")
	}
	if !agree(&out, a, parse(fakeRuns(5, 0.7))) {
		t.Error("a set 30% better disagrees")
	}
	if agree(&out, a, parse("")) {
		t.Error("an empty set agrees")
	}
}
