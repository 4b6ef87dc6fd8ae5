package crashtest

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// holdEnv, when set to an sptd binary path, turns the test binary into a
// holder (TestMain): it starts a daemon from that binary, prints the
// daemon's pid and waits to be killed.
const holdEnv = "SPTD_CRASHTEST_HOLD"

// holdDaemon is the holder's whole life. It gives up after a minute, in
// case the test that started it died before killing it.
func holdDaemon(bin string) int {
	d, err := Start(bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("daemon pid %d\n", d.cmd.Process.Pid)
	time.Sleep(time.Minute)
	d.Kill()
	return 1
}

// TestDaemonDiesWithParent pins Start's orphan-proofing: a process
// holding a daemon is SIGKILLed, so none of its cleanups run, and the
// daemon must be gone within 10 s. A zombie counts as gone: it runs
// nothing and holds no port, and reaping it is up to whoever inherited
// it.
func TestDaemonDiesWithParent(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemon processes")
	}
	if runtime.GOOS != "linux" {
		t.Skip("the parent-death signal is linux-only")
	}
	if binErr != nil {
		t.Fatal(binErr)
	}
	holder := exec.Command(os.Args[0], "-test.run=^$")
	holder.Env = append(os.Environ(), holdEnv+"="+binPath)
	orphanProof(holder)
	var stderr bytes.Buffer
	holder.Stderr = &stderr
	stdout, err := holder.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { holder.Process.Kill(); holder.Wait() })

	line, err := bufio.NewReader(stdout).ReadString('\n')
	pid, perr := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "daemon pid ")))
	if err != nil || perr != nil {
		holder.Process.Kill()
		holder.Wait() // stderr is complete only once Wait returns
		t.Fatalf("holder printed %q (%v):\n%s", line, err, stderr.String())
	}
	if !alive(pid) {
		t.Fatalf("daemon %d not running before its parent was killed", pid)
	}
	holder.Process.Kill()
	holder.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for alive(pid) {
		if time.Now().After(deadline) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("daemon %d still running 10s after its parent was SIGKILLed", pid)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// alive reports whether pid is a process that can still run: it exists
// and is not a zombie. The state is the field after the parenthesized
// command name in /proc/<pid>/stat.
func alive(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 || i+2 >= len(stat) {
		return false
	}
	return stat[i+2] != 'Z' && stat[i+2] != 'X'
}
