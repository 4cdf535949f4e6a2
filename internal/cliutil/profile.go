package cliutil

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles backs the -cpuprofile and -memprofile flags. It starts a CPU
// profile into cpuPath now; the returned stop ends it and writes the
// allocation profile of the whole run to memPath. An empty path skips that
// profile. Read either with `go tool pprof -top <file>`.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer mem.Close()
		runtime.GC() // fold the latest allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			return err
		}
		return mem.Close()
	}, nil
}
