package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostRecord names the machine a run measured: results from different
// hosts, Go versions or temp filesystems (the journal and the result store
// fsync there) are not comparable.
func hostRecord() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s tmpfs=%s (%s)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, fsType(os.TempDir()), os.TempDir())
}

// fsType returns the type of the filesystem holding dir, from the longest
// matching mount point in /proc/self/mounts ("unknown" where that file does
// not exist).
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (dir == mnt || strings.HasPrefix(dir, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, typ = len(mnt), f[2]
		}
	}
	return typ
}

// residentMB returns a resident-set figure of the process in MiB: field is
// "VmRSS" (now) or "VmHWM" (peak). Where /proc is unavailable it returns
// the Go runtime's total obtained memory.
func residentMB(field string) float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, field+":"); ok {
				if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
