package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// A manifest's JSON carries every instrument kind: counters and gauges as
// scalars under "metrics", and each histogram's buckets, sum and count under
// "histograms", in name order.
func TestManifestJSONCarriesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("conns_total").Add(3)
	r.Gauge("active").Set(-1)
	h := r.Histogram("splice_us", []int64{10, 100})
	for _, v := range []int64{5, 50, 500} {
		h.Observe(v)
	}
	r.Histogram("dial_us", []int64{1}).Observe(1)

	var b strings.Builder
	if err := NewManifest(7, "cfg", r.Snapshot()).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	type hist struct {
		Bounds []int64  `json:"bounds"`
		Counts []uint64 `json:"counts"`
		Sum    int64    `json:"sum"`
		Count  uint64   `json:"count"`
	}
	var doc struct {
		Metrics    map[string]int64 `json:"metrics"`
		Histograms map[string]hist  `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("manifest is not JSON: %v\n%s", err, b.String())
	}
	if want := map[string]int64{"conns_total": 3, "active": -1}; !reflect.DeepEqual(doc.Metrics, want) {
		t.Errorf("metrics = %v, want %v", doc.Metrics, want)
	}
	want := map[string]hist{
		"dial_us":   {Bounds: []int64{1}, Counts: []uint64{1, 0}, Sum: 1, Count: 1},
		"splice_us": {Bounds: []int64{10, 100}, Counts: []uint64{1, 1, 1}, Sum: 555, Count: 3},
	}
	if !reflect.DeepEqual(doc.Histograms, want) {
		t.Errorf("histograms = %+v, want %+v", doc.Histograms, want)
	}
	if i, j := strings.Index(b.String(), `"dial_us"`), strings.Index(b.String(), `"splice_us"`); i < 0 || i > j {
		t.Errorf("histograms not in name order:\n%s", b.String())
	}
}
