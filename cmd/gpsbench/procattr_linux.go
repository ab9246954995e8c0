//go:build linux

package main

import (
	"os/exec"
	"syscall"
)

// dieWithHarness asks the kernel to SIGKILL cmd's process when the thread
// that started it exits, so a harness that is itself killed cannot orphan
// the daemon it launched. Call it before cmd.Start.
func dieWithHarness(cmd *exec.Cmd) {
	if cmd.SysProcAttr == nil {
		cmd.SysProcAttr = &syscall.SysProcAttr{}
	}
	cmd.SysProcAttr.Pdeathsig = syscall.SIGKILL
}
