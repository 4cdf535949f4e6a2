package obs

import (
	"testing"

	"incastproxy/internal/lint"
)

// The simulator and everything it records through run on virtual time; a
// single wall-clock read in a recording path silently breaks run-to-run
// determinism (and the byte-identical manifest/trace guarantee).
//
// This test is a thin shim over the wallclock analyzer in internal/lint: it
// loads the whole module and fails on any unsuppressed finding, so plain
// `go test ./...` keeps enforcing the clock ban even where cmd/lint isn't
// wired in. Which packages are checked is no longer a directory list here —
// each virtual-time package opts in with a "lint:virtual-time" file pragma
// next to its package doc (the old hand-maintained list drifted once:
// internal/wire had to be patched in after the dial preamble grew trace
// context). `make lint` runs the full suite via cmd/lint.
func TestNoWallClockInVirtualTimePaths(t *testing.T) {
	pkgs, err := lint.LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(pkgs, []*lint.Analyzer{lint.Wallclock}) {
		t.Errorf("%s", d)
	}
}

// TestVirtualTimePragmaCoverage pins the opt-in set: losing a pragma (say,
// in a refactor that rewrites a package doc file) would silently drop that
// package from the wallclock ban, which is exactly the drift failure mode
// the pragma design replaces. Extend this list when a new package opts in.
func TestVirtualTimePragmaCoverage(t *testing.T) {
	want := map[string]bool{
		"incastproxy/internal/sim":       true,
		"incastproxy/internal/netsim":    true,
		"incastproxy/internal/transport": true,
		"incastproxy/internal/workload":  true,
		"incastproxy/internal/chaosnet":  true,
		"incastproxy/internal/wire":      true,
		"incastproxy/internal/obs":       true,
		"incastproxy/internal/model":     true,
	}
	pkgs, err := lint.LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if lint.HasVirtualTimePragma(pkg) {
			if !want[pkg.Path] {
				// New opt-ins are welcome; record them here so removal is
				// a visible decision too.
				t.Errorf("package %s carries the virtual-time pragma but is not in the coverage list; add it", pkg.Path)
			}
			delete(want, pkg.Path)
		}
	}
	for path := range want {
		t.Errorf("package %s lost its lint:virtual-time pragma", path)
	}
}
