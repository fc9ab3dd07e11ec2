//go:build linux

package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time, in ns, that the calling OS thread has
// used. The caller must be locked to its thread (runtime.LockOSThread).
func threadCPU() (int64, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, fmt.Errorf("thread CPU clock: %w", errno)
	}
	return ts.Nano(), nil
}
