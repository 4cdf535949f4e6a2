package main

import (
	"testing"
	"time"
)

func TestCalibrationKernel(t *testing.T) {
	c := newCalibrator()
	if got := c.pass(); got != calChecksum {
		t.Fatalf("checksum %#x, want %#x: the kernel's work changed", got, uint64(calChecksum))
	}
	if a := testing.AllocsPerRun(2, func() { c.pass() }); a != 0 {
		t.Fatalf("kernel allocates %.0f per pass, want 0", a)
	}
	d, err := c.measure()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one pass: %v", d)
}

func TestCalibrationRangeRefusal(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, 9 * time.Millisecond, 501 * time.Millisecond, time.Minute} {
		if checkCalRange(d) == nil {
			t.Errorf("pass of %v accepted, want refusal", d)
		}
	}
	for _, d := range []time.Duration{calMinPass, 65 * time.Millisecond, calMaxPass} {
		if err := checkCalRange(d); err != nil {
			t.Errorf("pass of %v refused: %v", d, err)
		}
	}
}
