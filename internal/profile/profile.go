// Package profile writes the CPU and heap profiles that the
// command-line tools take with -cpuprofile and -memprofile, in the
// runtime/pprof format `go tool pprof` reads.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath when it is non-empty. The
// returned stop function ends the CPU profile and, when memPath is
// non-empty, writes a heap profile there after a garbage collection,
// so the profile shows live memory at the end of the run. With both
// paths empty Start does nothing and stop returns nil.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		cpu, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("creating CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("writing CPU profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		return writeHeap(memPath)
	}, nil
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("writing heap profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return nil
}
