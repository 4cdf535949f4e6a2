// Package runner fans independent simulation trials across worker
// goroutines while keeping outputs byte-identical to a serial run.
//
// The experiment harness repeats many self-contained simulations: the same
// spec under different seeds (workload.Run) and different sweep cells
// (figures). Each trial builds its own sim.Engine,
// obs.Registry, and rng.Source, so trials share nothing and can execute
// concurrently; the only thing that must be preserved is the order in which
// their results are merged. Map provides exactly that contract: trials run
// on up to GOMAXPROCS workers, results come back indexed by submission
// order, and the error (or panic) surfaced is the one from the
// lowest-indexed failing trial — the same one a serial loop would have hit
// first.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallelism resolves a worker-count knob: n > 0 means n workers, anything
// else means one worker per available CPU (GOMAXPROCS).
func Parallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs n independent trials and returns their results in submission
// order. parallel <= 0 selects GOMAXPROCS workers; parallel == 1 runs the
// trials serially on the calling goroutine with no synchronization at all,
// so the serial path is exactly the pre-pool code shape.
//
// Trials must be independent: trial(i) may not read or write state shared
// with trial(j). On failure Map returns a nil slice and the error from the
// lowest-indexed failing trial; a panicking trial re-panics on the caller's
// goroutine (again lowest index first). Workers stop claiming new trials
// once any trial has failed, but trials already in flight run to completion.
func Map[T any](parallel, n int, trial func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	parallel = Parallelism(parallel)
	if parallel > n {
		parallel = n
	}
	results := make([]T, n)
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			r, err := trial(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				runTrial(trial, i, results, errs, panics, &failed)
			}
		}()
	}
	wg.Wait()

	// Merge in submission order so the surfaced failure is the one a
	// serial loop would have hit first, regardless of which worker ran it.
	for i := 0; i < n; i++ {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return results, nil
}

// runTrial executes one trial, capturing its panic (if any) so the pool can
// re-raise it deterministically from the caller's goroutine.
func runTrial[T any](trial func(i int) (T, error), i int,
	results []T, errs []error, panics []any, failed *atomic.Bool) {
	defer func() {
		if p := recover(); p != nil {
			panics[i] = p
			failed.Store(true)
		}
	}()
	r, err := trial(i)
	if err != nil {
		errs[i] = err
		failed.Store(true)
		return
	}
	results[i] = r
}
