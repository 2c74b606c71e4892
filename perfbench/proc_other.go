//go:build !linux

package main

import (
	"errors"
	"os/exec"
	"time"
)

// setParentDeathSignal has no portable equivalent off Linux; runServe's
// deferred stop still ends foldd on every normal exit path.
func setParentDeathSignal(cmd *exec.Cmd) {}

// procCPU needs Linux's /proc.
func procCPU(pid int) (time.Duration, error) {
	return 0, errors.New("per-process CPU time needs /proc")
}
