package main

import (
	"fmt"
	"time"
)

// The calibration kernel is the benchmark's unit of CPU time. On a shared
// host the wall-clock of identical work drifts by 10% and more between
// windows of one process, so an op's wall time is divided by the time the
// same host took, just before and just after, to run this fixed kernel
// (unit "cal"). The kernel is shaped like the simulator's event loop — a
// binary heap of (time, seq) records whose pops walk dependent loads through
// a table larger than the caches — so frequency changes, steal time and cache
// pressure move it the way they move an op. It allocates nothing, so the
// garbage collector never runs on its behalf.
const (
	calHeapSize  = 4096
	calSteps     = 300_000
	calTableSize = 1 << 21 // 2Mi uint64 = 16 MiB
	calLoads     = 1       // dependent table loads per pop

	// calChecksum pins the kernel's output: a compiler that elided the
	// loop, or an edit that changed the work, changes this value.
	calChecksum uint64 = 0xa95d7cea067ca48b

	// A pass outside these limits means the host is too fast or too slow
	// for the kernel to be a usable yardstick; the run refuses to start.
	calMinPass = 10 * time.Millisecond
	calMaxPass = 500 * time.Millisecond
)

type calEvent struct{ at, seq uint64 }

type calibrator struct {
	heap  []calEvent
	table []uint64
}

// splitmix64 is the fixed mixer that fills the table and seeds the heap; the
// kernel is the same on every seed and every workload by design.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newCalibrator() *calibrator {
	c := &calibrator{
		heap:  make([]calEvent, 0, calHeapSize),
		table: make([]uint64, calTableSize),
	}
	c.fill()
	return c
}

// fill writes the table's fixed content.
func (c *calibrator) fill() {
	for i := range c.table {
		c.table[i] = splitmix64(uint64(i))
	}
}

func calLess(a, b calEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *calibrator) push(ev calEvent) {
	c.heap = append(c.heap, ev)
	h := c.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !calLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (c *calibrator) pop() calEvent {
	h := c.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	c.heap = h[:n]
	h = c.heap
	i := 0
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < n && calLess(h[l], h[min]) {
			min = l
		}
		if r < n && calLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// pass runs the kernel once from its fixed initial state and returns its
// checksum.
func (c *calibrator) pass() uint64 {
	const mask = calTableSize - 1
	c.heap = c.heap[:0]
	for i := uint64(0); i < calHeapSize; i++ {
		c.push(calEvent{at: splitmix64(i) >> 44, seq: i})
	}
	var sum uint64
	for n := uint64(0); n < calSteps; n++ {
		ev := c.pop()
		idx := (ev.at ^ ev.seq) & mask
		for k := 0; k < calLoads; k++ {
			idx = c.table[idx] & mask
		}
		v := c.table[idx]
		sum += v ^ ev.at
		c.push(calEvent{at: ev.at + 1 + v>>48, seq: calHeapSize + n})
	}
	return sum
}

// measure times one pass and checks its output.
func (c *calibrator) measure() (time.Duration, error) {
	t0 := time.Now()
	sum := c.pass()
	d := time.Since(t0)
	if sum != calChecksum {
		return d, fmt.Errorf("calibration kernel checksum %#x, want %#x", sum, uint64(calChecksum))
	}
	return d, nil
}

// checkCalRange refuses a host on which one pass is not between calMinPass and
// calMaxPass.
func checkCalRange(d time.Duration) error {
	if d < calMinPass || d > calMaxPass {
		return fmt.Errorf("calibration pass took %v, outside %v–%v: this host cannot be calibrated",
			d, calMinPass, calMaxPass)
	}
	return nil
}
