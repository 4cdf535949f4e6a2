package cliutil

import (
	"testing"

	"incastproxy/internal/units"
)

func TestParseSize(t *testing.T) {
	cases := map[string]units.ByteSize{
		"40MB":   40 * units.MB,
		"1.5GB":  1500 * units.MB,
		"100KB":  100 * units.KB,
		"512B":   512,
		"1000":   1000,
		" 2 MB ": 2 * units.MB,
		"0MB":    0,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "-5MB", "MB"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) should fail", bad)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]units.Duration{
		"100us": 100 * units.Microsecond,
		"1ms":   units.Millisecond,
		"2.5s":  2500 * units.Millisecond,
		"500ns": 500 * units.Nanosecond,
		"7ps":   7 * units.Picosecond,
	}
	for in, want := range cases {
		got, err := ParseDuration(in)
		if err != nil || got != want {
			t.Errorf("ParseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "5", "abcms", "-1ms"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) should fail", bad)
		}
	}
}
