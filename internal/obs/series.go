package obs

import (
	"fmt"
	"io"
	"sort"

	"incastproxy/internal/units"
)

// Point is one sample of a time series in virtual time.
type Point struct {
	At    units.Time
	Value int64
}

// Series is an append-only sampled time series (e.g. queue occupancy).
type Series struct {
	Label  string
	Points []Point
}

// Add appends one sample.
func (s *Series) Add(at units.Time, v int64) {
	s.Points = append(s.Points, Point{At: at, Value: v})
}

// Peak returns the maximum sampled value and the time it was observed.
func (s *Series) Peak() (int64, units.Time) {
	var maxV int64
	var at units.Time
	for _, p := range s.Points {
		if p.Value > maxV {
			maxV, at = p.Value, p.At
		}
	}
	return maxV, at
}

// Mean returns the average of the sampled values (0 when empty).
func (s *Series) Mean() int64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum int64
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / int64(len(s.Points))
}

// SeriesSet is a group of series sharing one export. The set merges rows on
// the union of all timestamps in time order, leaving cells blank where a
// series has no sample at that instant (aligning rows by sample index would
// misattribute timestamps whenever series differ in length).
type SeriesSet struct {
	Series []*Series
}

// Add registers a new empty series under the given label.
func (ss *SeriesSet) Add(label string) *Series {
	s := &Series{Label: label}
	ss.Series = append(ss.Series, s)
	return s
}

// WriteCSV emits "time_us,label1,label2,..." rows over the union of all
// sample timestamps, sorted by time. Output is deterministic for identical
// series contents.
func (ss *SeriesSet) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "time_us"); err != nil {
		return err
	}
	for _, s := range ss.Series {
		if _, err := fmt.Fprintf(w, ",%s", csvEscape(s.Label)); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}

	// Union of timestamps across all series.
	stampSet := make(map[units.Time]struct{})
	for _, s := range ss.Series {
		for _, p := range s.Points {
			stampSet[p.At] = struct{}{}
		}
	}
	stamps := make([]units.Time, 0, len(stampSet))
	for at := range stampSet {
		stamps = append(stamps, at)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i] < stamps[j] })

	// Per-series cursors; each series' points are in append (time) order.
	idx := make([]int, len(ss.Series))
	for _, at := range stamps {
		if _, err := io.WriteString(w, tsMicros(at)); err != nil {
			return err
		}
		for si, s := range ss.Series {
			// Consume every point at (or stranded before) this stamp;
			// with duplicate timestamps the last sample wins.
			cell := ""
			for idx[si] < len(s.Points) && s.Points[idx[si]].At <= at {
				if s.Points[idx[si]].At == at {
					cell = fmt.Sprintf("%d", s.Points[idx[si]].Value)
				}
				idx[si]++
			}
			if _, err := fmt.Fprintf(w, ",%s", cell); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
