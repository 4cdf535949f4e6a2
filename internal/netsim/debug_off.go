//go:build !simdebug

package netsim

// debugPool compiles the packet use-after-release and one-list checks in
// (-tags simdebug) or out. It selects no behaviour: a run is the same either way.
const debugPool = false
