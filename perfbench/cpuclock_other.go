//go:build !linux

package main

import "errors"

// threadCPU needs Linux's per-thread CPU clock.
func threadCPU() (int64, error) {
	return 0, errors.New("thread CPU clock: only supported on linux")
}
