package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fsType names the filesystem holding dir, so a run on tmpfs is visible
// in its descriptor.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// quiesce flushes every dirty page to disk, so a timed phase does not
// start behind write-back left over from the one before it.
func quiesce() { syscall.Sync() }

// cpuTicks returns the machine's cumulative CPU time by state from
// /proc/stat: user, nice, system, idle, iowait, irq, softirq, steal.
func cpuTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]int64, 8)
	for i := range out {
		out[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return out
}

// processCPU returns the CPU time this process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
