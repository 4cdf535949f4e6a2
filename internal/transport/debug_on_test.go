//go:build simdebug

package transport

import (
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/units"
)

// Under the tag the flight list refuses a sequence linked while it is
// already in flight, and one unlinked while it is not.
func TestFlightListMisusePanics(t *testing.T) {
	p := newPair(t, 10*units.Gbps, units.Microsecond, netsim.QueueConfig{})
	snd := NewSender(p.src, 1, p.dst.ID(), 0, 10*DefaultMSS, Config{InitWindow: 4 * DefaultMSS}, nil)
	p.src.Bind(1, snd)
	snd.Start(p.e) // seqs 0-3 in flight, the rest not yet sent
	mustPanic(t, "linking seq 1 twice", func() { snd.link(1, &snd.pkts[1]) })
	snd.land(1, &snd.pkts[1])
	mustPanic(t, "unlinking seq 1 twice", func() { snd.land(1, &snd.pkts[1]) })
}
