package cliutil

import (
	"strings"
	"testing"
	"time"
)

// recordingFailer captures Errorf calls so the tests can assert LeakCheck
// both stays quiet on clean returns and speaks up on real leaks.
type recordingFailer struct {
	msgs []string
}

func (r *recordingFailer) Helper() {}
func (r *recordingFailer) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, format)
}

func TestLeakCheckCleanReturn(t *testing.T) {
	f := &recordingFailer{}
	check := LeakCheck(f)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	check()
	if len(f.msgs) != 0 {
		t.Fatalf("clean return reported a leak: %v", f.msgs)
	}
}

func TestLeakCheckDetectsLeak(t *testing.T) {
	f := &recordingFailer{}
	check := LeakCheck(f)
	release := make(chan struct{})
	go func() { <-release }() // parked goroutine LeakCheck must flag
	// Shrink the deadline indirectly: the leaked goroutine never exits, so
	// check() runs its full 2s poll. Acceptable in a unit test run once.
	check()
	close(release)
	if len(f.msgs) == 0 {
		t.Fatal("leaked goroutine went unreported")
	}
	if !strings.Contains(f.msgs[0], "goroutine leak") {
		t.Fatalf("unexpected failure message %q", f.msgs[0])
	}
	// Let the released goroutine finish before the next test snapshots.
	time.Sleep(10 * time.Millisecond)
}

// A goroutine that was running at the snapshot and exits while the check
// polls leaves the count where it was, even though a new goroutine is still
// parked: the check must report the new one all the same.
func TestLeakCheckNotMaskedByExitingGoroutine(t *testing.T) {
	f := &recordingFailer{}
	stop, exited := make(chan struct{}), make(chan struct{})
	go func() { <-stop; close(exited) }() // running at the snapshot
	check := LeakCheck(f)
	release := make(chan struct{})
	go func() { <-release }() // leaked after it
	close(stop)
	<-exited
	check()
	close(release)
	if len(f.msgs) == 0 {
		t.Fatal("a leak was masked by a goroutine that exited during the check")
	}
	time.Sleep(10 * time.Millisecond)
}
