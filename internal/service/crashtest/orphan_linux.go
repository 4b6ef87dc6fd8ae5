//go:build linux

package crashtest

import (
	"os/exec"
	"syscall"
)

// orphanProof has the kernel SIGKILL cmd's process when the process that
// started it dies, so a test binary that dies without running its
// cleanups (a -timeout panic, a SIGKILL) leaves no daemon behind. The
// signal follows the starting OS thread; the Go runtime keeps its
// threads for the life of the process unless a goroutine exits while
// locked to one, which nothing here does.
func orphanProof(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
