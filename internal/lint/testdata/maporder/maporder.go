// Package fixture exercises the maporder analyzer: map-range bodies feeding
// ordered outputs are flagged; collect-then-sort and pure aggregation pass.
package fixture

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

func unsortedAppend(m map[string]int) []string {
	var rows []string
	for k := range m {
		rows = append(rows, k) // want `append to rows inside range over map with no subsequent sort`
	}
	return rows
}

func writerInLoop(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf inside range over map`
	}
}

func encoderInLoop(w io.Writer, m map[string]int) {
	enc := json.NewEncoder(w)
	for _, v := range m {
		enc.Encode(v) // want `enc\.Encode inside range over map`
	}
}

type sink struct{}

func (sink) Instant(name string) {}

func tracerInLoop(s sink, m map[string]int) {
	for k := range m {
		s.Instant(k) // want `s\.Instant inside range over map`
	}
}

func collect(k string, rows []string) []string { return append(rows, k) }

// threadedAppend hides the append in a callee: the slice goes in and comes
// back, one map iteration at a time.
func threadedAppend(m map[string]int) []string {
	var rows []string
	for k := range m {
		rows = collect(k, rows) // want `rows threaded through collect inside range over map with no subsequent sort`
	}
	return rows
}

func threadedThenSorted(m map[string]int) []string {
	var rows []string
	for k := range m {
		rows = collect(k, rows)
	}
	sort.Strings(rows)
	return rows
}

func threadedScalar(m map[string]int) int {
	add := func(a, b int) int { return a + b }
	total := 0
	for _, v := range m {
		total = add(total, v) // not a slice: folding, no finding
	}
	return total
}

func sortedAppend(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type row struct{ Name string }

// helperSorted mirrors the registry Snapshot shape: append to struct fields
// in several map loops, sort through a local helper afterwards.
func helperSorted(m map[string]int) []row {
	var out struct{ Rows []row }
	for k := range m {
		out.Rows = append(out.Rows, row{Name: k})
	}
	sortRows := func(rs []row) {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
	}
	sortRows(out.Rows)
	return out.Rows
}

func aggregation(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v // folding is order-insensitive: no finding
	}
	return total
}

func loopLocal(w io.Writer, m map[string][]byte) {
	for _, vs := range m {
		var line []byte
		line = append(line, vs...) // iteration-local slice: no finding
		_ = line
	}
}
