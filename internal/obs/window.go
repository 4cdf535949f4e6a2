package obs

// Sliding-window streaming quantiles. A WindowQuantile keeps the last N
// observations in a ring and answers p50/p99/p999 queries over the live
// window. It reads no clock, so the type is safe in virtual-time packages.
// Registries expose them on /metrics as gauge series labeled
// {quantile="0.5"|"0.99"|"0.999"}.

import (
	"sort"
	"sync"
)

// WindowQuantile is a fixed-capacity sliding window of observations.
// Nil-safe like the other instruments. Create with NewWindowQuantile or
// Registry.Window.
type WindowQuantile struct {
	mu    sync.Mutex
	vs    []int64 // ring
	head  int     // next write position
	n     int     // live samples
	total uint64
}

// DefaultWindowSize is the sample capacity Registry.Window uses when the
// caller passes size <= 0.
const DefaultWindowSize = 1024

// NewWindowQuantile returns a window holding the last size samples.
func NewWindowQuantile(size int) *WindowQuantile {
	if size <= 0 {
		size = DefaultWindowSize
	}
	return &WindowQuantile{vs: make([]int64, size)}
}

// Observe records one value, evicting the oldest once the window is full.
func (w *WindowQuantile) Observe(v int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.vs[w.head] = v
	w.head = (w.head + 1) % len(w.vs)
	if w.n < len(w.vs) {
		w.n++
	}
	w.total++
	w.mu.Unlock()
}

// Count returns the number of live samples in the window.
func (w *WindowQuantile) Count() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Total returns the lifetime observation count (exported as a _count
// counter so rate() works even though the window forgets).
func (w *WindowQuantile) Total() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Quantile returns the q-quantile (0 < q <= 1, nearest-rank) over the
// live window, or 0 with ok=false when the window is empty.
func (w *WindowQuantile) Quantile(q float64) (int64, bool) {
	if w == nil {
		return 0, false
	}
	w.mu.Lock()
	sorted := make([]int64, w.n)
	for i := 0; i < w.n; i++ {
		sorted[i] = w.vs[(w.head-w.n+i+len(w.vs))%len(w.vs)]
	}
	w.mu.Unlock()
	if len(sorted) == 0 {
		return 0, false
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	idx := int(q*float64(len(sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx], true
}
