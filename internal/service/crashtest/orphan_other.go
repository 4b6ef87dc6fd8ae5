//go:build !linux

package crashtest

import "os/exec"

// orphanProof does nothing where the kernel offers no parent-death
// signal; there a daemon is stopped only by Kill or Stop.
func orphanProof(cmd *exec.Cmd) {}
