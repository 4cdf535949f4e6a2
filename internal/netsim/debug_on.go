//go:build simdebug

package netsim

// debugPool: see debug_off.go.
const debugPool = true
