package incastproxy

import (
	"io"
	"strings"
	"testing"
)

// fastFigures evaluates cfg's three sweeps with the analytical model.
func fastFigures(t *testing.T, cfg SweepConfig) map[Table][]FigurePoint {
	t.Helper()
	cfg.Fast = true
	figs, err := Sweep(cfg, staticTables...)
	if err != nil {
		t.Fatal(err)
	}
	return figs
}

// Every claim finds its cells on the paper's grid, the one `figures` runs.
func TestClaimsTableRendersOnThePaperGrid(t *testing.T) {
	var sb strings.Builder
	if err := WriteClaimsTable(&sb, fastFigures(t, PaperSweep())); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if want := 2 + len(claims); len(lines) != want {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), want, sb.String())
	}
	for i, c := range claims {
		row := lines[2+i]
		if !strings.HasPrefix(row, c.words) || !(strings.HasSuffix(row, "PASS") || strings.HasSuffix(row, "FAIL")) {
			t.Errorf("row %d %q, want %q's words and a verdict", i, row, c.words)
		}
	}
}

func TestClaimsTableNamesTheClaimMissingACell(t *testing.T) {
	cfg := PaperSweep()
	cfg.Sizes = []ByteSize{50 * MB, 100 * MB}
	err := WriteClaimsTable(io.Discard, fastFigures(t, cfg))
	if err == nil || !strings.Contains(err.Error(), "Fig 2R parity at 20 MB") || !strings.Contains(err.Error(), "size=20MB") {
		t.Fatalf("err = %v, want one naming the 20 MB parity claim and its cell", err)
	}
}

// Verdicts are taken at the printed precision, so a value exactly on a
// tolerance edge passes and one a hundredth of a point past it fails.
func TestClaimVerdictsAtTheEdges(t *testing.T) {
	find := func(words string) claim {
		for _, c := range claims {
			if strings.HasPrefix(c.words, words) {
				return c
			}
		}
		t.Fatalf("no claim %q", words)
		return claim{}
	}
	mean := find("Fig 2L mean reduction, naive")
	sign := find("Fig 3 streamlined wins at 100 µs")
	parity := find("Fig 2R parity at 20 MB")
	for _, tc := range []struct {
		c    claim
		ours float64
		want bool
	}{
		{mean, mean.paper + 10, true},
		{mean, mean.paper - 10, true},
		{mean, mean.paper + 10.01, false},
		{mean, mean.paper - 10.01, false},
		{sign, 0, false},
		{sign, -0.001, false},
		{sign, 0.01, true},
		{parity, 5, true},
		{parity, 5.01, false},
	} {
		if got := tc.c.pass(tc.ours); got != tc.want {
			t.Errorf("%q at %v: pass = %v, want %v", tc.c.words, tc.ours, got, tc.want)
		}
	}
}
