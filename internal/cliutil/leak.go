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

// LeakCheck snapshots the IDs of the running goroutines and returns a
// function to defer: on return it polls until no goroutine outside that set
// is left or the deadline passes, then fails the test with the stacks of the
// goroutines that are new and survived. Comparing IDs, not counts, keeps a
// goroutine that was running at the snapshot and exits during the poll from
// masking one the test leaked.
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
	base := make(map[string]bool)
	for _, g := range goroutines() {
		base[goroutineID(g)] = true
	}
	return func() {
		f.Helper()
		var leaked []string
		// Goroutine teardown is asynchronous: a closed conn's copy loop
		// needs a few scheduler passes to observe the error and exit.
		if WaitUntil(2*time.Second, time.Millisecond, func() bool {
			leaked = leaked[:0]
			for _, g := range goroutines() {
				if !base[goroutineID(g)] {
					leaked = append(leaked, g)
				}
			}
			return len(leaked) == 0
		}) {
			return
		}
		f.Errorf("goroutine leak: %d goroutines not running at start survived\n%s",
			len(leaked), summarizeStacks(leaked))
	}
}

// goroutines returns the stack of every goroutine, one string each, headed by
// its "goroutine N [state]:" line.
func goroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(strings.TrimSpace(string(buf[:n])), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// goroutineID returns N from a stack's "goroutine N [" header.
func goroutineID(stack string) string {
	id, _, _ := strings.Cut(strings.TrimPrefix(stack, "goroutine "), " ")
	return id
}

// summarizeStacks trims each stack to its headline line plus its top frame
// — enough to identify the leaker without drowning the test log.
func summarizeStacks(stacks []string) string {
	var b strings.Builder
	for _, g := range stacks {
		lines := strings.Split(g, "\n")
		n := len(lines)
		if n > 3 {
			n = 3
		}
		fmt.Fprintln(&b, strings.Join(lines[:n], "\n"))
	}
	return b.String()
}
