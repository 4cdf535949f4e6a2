// Package cliutil provides the human-friendly size/duration parsing shared
// by the command-line tools (incastsim, relayd, figures).
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"incastproxy/internal/units"
)

// ParseSize parses "40MB", "1.5GB", "100KB", "512B", or a bare byte count.
// Units are decimal (1 MB = 1e6 B), matching the paper.
func ParseSize(s string) (units.ByteSize, error) {
	raw := strings.TrimSpace(strings.ToUpper(s))
	if raw == "" {
		return 0, fmt.Errorf("cliutil: empty size")
	}
	mult := units.Byte
	switch {
	case strings.HasSuffix(raw, "GB"):
		mult, raw = units.GB, strings.TrimSuffix(raw, "GB")
	case strings.HasSuffix(raw, "MB"):
		mult, raw = units.MB, strings.TrimSuffix(raw, "MB")
	case strings.HasSuffix(raw, "KB"):
		mult, raw = units.KB, strings.TrimSuffix(raw, "KB")
	case strings.HasSuffix(raw, "B"):
		raw = strings.TrimSuffix(raw, "B")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("cliutil: bad size %q", s)
	}
	return units.ByteSize(v * float64(mult)), nil
}

// ParseDuration parses "100us", "1ms", "2.5s", "500ns" into simulated
// duration.
func ParseDuration(s string) (units.Duration, error) {
	raw := strings.TrimSpace(strings.ToLower(s))
	if raw == "" {
		return 0, fmt.Errorf("cliutil: empty duration")
	}
	mult := units.Microsecond
	switch {
	case strings.HasSuffix(raw, "us"):
		mult, raw = units.Microsecond, strings.TrimSuffix(raw, "us")
	case strings.HasSuffix(raw, "ms"):
		mult, raw = units.Millisecond, strings.TrimSuffix(raw, "ms")
	case strings.HasSuffix(raw, "ns"):
		mult, raw = units.Nanosecond, strings.TrimSuffix(raw, "ns")
	case strings.HasSuffix(raw, "ps"):
		mult, raw = units.Picosecond, strings.TrimSuffix(raw, "ps")
	case strings.HasSuffix(raw, "s"):
		mult, raw = units.Second, strings.TrimSuffix(raw, "s")
	default:
		return 0, fmt.Errorf("cliutil: duration %q needs a unit (ps/ns/us/ms/s)", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("cliutil: bad duration %q", s)
	}
	return units.Duration(v * float64(mult)), nil
}
