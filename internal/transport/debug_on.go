//go:build simdebug

package transport

// debugFlight: see debug_off.go.
const debugFlight = true
