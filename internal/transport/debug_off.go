//go:build !simdebug

package transport

// debugFlight compiles the flight-list checks in (-tags simdebug) or out: a
// sequence linked while already in flight, or unlinked while not. It selects
// no behaviour: a run is the same either way.
const debugFlight = false
