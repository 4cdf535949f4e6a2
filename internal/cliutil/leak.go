package cliutil

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Failer is the slice of *testing.T that LeakCheck needs. Taking the
// interface instead of the concrete type keeps the testing package out of
// this (non-test) file's import graph while letting every test package in
// the repo share one leak detector.
type Failer interface {
	Helper()
	Errorf(format string, args ...any)
}

// LeakCheck snapshots the goroutine count and returns a function to defer:
// on return it polls until the count falls back to the snapshot (plus any
// goroutines the runtime itself owns) or the deadline passes, then fails
// the test with a full stack dump if extra goroutines survived.
//
// The relay and lan substrates spawn a goroutine per splice direction and
// per accepted conn; "drain/Close leaves nothing behind"
// is the invariant that keeps a long-lived relayd from slowly pinning
// memory, and it is exactly the kind of regression ordinary assertions
// miss — the test passes while the leaked goroutine idles. Use as:
//
//	defer cliutil.LeakCheck(t)()
//
// before creating any servers or clients, so everything the test spawns is
// in scope.
func LeakCheck(f Failer) func() {
	f.Helper()
	base := runtime.NumGoroutine()
	return func() {
		f.Helper()
		// Goroutine teardown is asynchronous: a closed conn's copy loop
		// needs a few scheduler passes to observe the error and exit.
		if WaitUntil(2*time.Second, time.Millisecond, func() bool {
			return runtime.NumGoroutine() <= base
		}) {
			return
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		f.Errorf("goroutine leak: %d running, %d at start\n%s",
			runtime.NumGoroutine(), base, summarizeStacks(string(buf)))
	}
}

// summarizeStacks trims a full goroutine dump to its headline lines plus
// the top frame of each stack — enough to identify the leaker without
// drowning the test log.
func summarizeStacks(dump string) string {
	var b strings.Builder
	for _, g := range strings.Split(dump, "\n\n") {
		lines := strings.Split(g, "\n")
		n := len(lines)
		if n > 3 {
			n = 3
		}
		fmt.Fprintln(&b, strings.Join(lines[:n], "\n"))
	}
	return b.String()
}
