// Package fixture exercises the rawrand analyzer: any import of math/rand is
// flagged, and so is ad-hoc seed arithmetic in rng.New; whole seeds pass. The
// fixture loads on its own, so the rng import stays unresolved and the
// analyzer matches it by syntax.
package fixture

import (
	"math/rand"       // want `import of math/rand: draw from an rng\.Source`
	r2 "math/rand/v2" // want `import of math/rand/v2: draw from an rng\.Source`

	"incastproxy/internal/rng"
)

var _, _ = rand.Intn, r2.IntN

func adHocSeeds(seed int64, run int) {
	_ = rng.New(seed + int64(run)*7919) // want `ad-hoc seed arithmetic in rng\.New`
	_ = rng.New((seed ^ 3))             // want `ad-hoc seed arithmetic in rng\.New`
}

func legal(seed int64, run int) {
	_ = rng.New(seed)
	_ = rng.New(42)
	_ = rng.New(rng.DeriveSeed(seed, int64(run)))
}

// shadow proves a local named rng is not confused with the package.
func shadow(seed int64) int64 {
	type fake struct{ New func(int64) int64 }
	rng := fake{New: func(s int64) int64 { return s }}
	return rng.New(seed + 1)
}
