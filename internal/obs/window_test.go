package obs

import "testing"

func TestWindowQuantileBasics(t *testing.T) {
	w := NewWindowQuantile(8)
	if _, ok := w.Quantile(0.5); ok {
		t.Fatal("empty window must report ok=false")
	}
	for i := int64(1); i <= 5; i++ {
		w.Observe(i * 10)
	}
	if got := w.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := w.Total(); got != 5 {
		t.Fatalf("total = %d, want 5", got)
	}
	if v, _ := w.Quantile(0.5); v != 30 {
		t.Fatalf("p50 = %d, want 30 (nearest rank of 10..50)", v)
	}
	if v, _ := w.Quantile(1); v != 50 {
		t.Fatalf("p100 = %d, want 50", v)
	}
}

func TestWindowQuantileRingEviction(t *testing.T) {
	w := NewWindowQuantile(4)
	for i := int64(1); i <= 10; i++ {
		w.Observe(i)
	}
	// Only the last 4 samples (7..10) survive the count bound.
	if got := w.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := w.Total(); got != 10 {
		t.Fatalf("total = %d, want 10 (lifetime count must not forget)", got)
	}
	if v, _ := w.Quantile(0.5); v != 8 {
		t.Fatalf("p50 = %d, want 8 over the live window 7..10", v)
	}
}

func TestWindowQuantileNilSafety(t *testing.T) {
	var w *WindowQuantile
	w.Observe(1)
	if w.Count() != 0 || w.Total() != 0 {
		t.Fatal("nil window must count nothing")
	}
	if _, ok := w.Quantile(0.5); ok {
		t.Fatal("nil window must report ok=false")
	}
}

func TestRegistryWindowExport(t *testing.T) {
	r := NewRegistry()
	w := r.Window("dial_us", 4)
	if r.Window("dial_us", 4) != w {
		t.Fatal("Window must be get-or-create")
	}
	for i := int64(1); i <= 4; i++ {
		w.Observe(i * 100)
	}
	snap := r.Snapshot()
	if v, ok := snap.Get(`dial_us{quantile="0.5"}`); !ok || v != 200 {
		t.Fatalf("p50 gauge = %d (ok=%v), want 200", v, ok)
	}
	if v, ok := snap.Get(`dial_us{quantile="0.99"}`); !ok || v != 400 {
		t.Fatalf("p99 gauge = %d (ok=%v), want 400", v, ok)
	}
	if v, ok := snap.Get("dial_us_count"); !ok || v != 4 {
		t.Fatalf("count = %d (ok=%v), want 4", v, ok)
	}
}
