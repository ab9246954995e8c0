//go:build !linux

package main

import "os/exec"

// dieWithHarness is a no-op where the kernel offers no parent-death
// signal; the harnesses still stop their daemons on every normal exit.
func dieWithHarness(cmd *exec.Cmd) {}
