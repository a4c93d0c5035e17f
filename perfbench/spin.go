package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// On a virtual machine a CPU that goes idle between requests halts, and the
// next request waits for the hypervisor to run it again (the wait shows as
// steal time). On a 2-vCPU KVM guest that wake-up wait, not the program, set
// the served latencies: serve-des percentiles spread by half their median
// across runs a minute apart, and by 7-18% with every CPU kept busy. The
// benchmark therefore keeps every CPU busy with one lowest-priority spinner
// process each, the software form of disabling CPU idle states on a
// benchmark machine. A nice-19 spinner yields to any real
// work (the scheduler gives it about 1.5% of a contended CPU), so it costs
// the measured processes little and keeps their CPUs awake.

// spinForever is the body of a spinner process: drop this thread to the
// lowest priority and burn CPU until killed.
func spinForever() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	// On Linux, PRIO_PROCESS with who 0 renices the calling thread.
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spinner: setpriority:", err)
		os.Exit(1)
	}
	for {
	}
}

// startSpinners starts one spinner per CPU and returns the function that
// kills them and waits until each has exited. The spinners also die with
// the benchmark if it is killed.
func startSpinners() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("spinners: %w", err)
	}
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(self, "-spin")
		c.Stderr = os.Stderr
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stop()
			return nil, fmt.Errorf("start spinner: %w", err)
		}
		cmds = append(cmds, c)
	}
	return stop, nil
}
