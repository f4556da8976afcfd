package main

import (
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is the provenance block written into every report, so a
// number can never be read without the box and commit it came from.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"` // what the workload ran at
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"` // "unknown" outside a git checkout
	Dirty      bool    `json:"dirty"`
	Load1      float64 `json:"load1_at_start"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Started    string  `json:"started"`
}

func readEnvironment(seed int64, seconds, scale float64) environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     firstField("/proc/sys/kernel/osrelease"),
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Scale:      scale,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	env.Load1, _ = strconv.ParseFloat(firstField("/proc/loadavg"), 64)
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		// The driver's checkout is not a git repository; there the commit
		// stays "unknown" and dirty stays false.
		status, err := exec.Command("git", "status", "--porcelain").Output()
		env.Dirty = err == nil && len(bytes.TrimSpace(status)) > 0
	}
	return env
}

// firstField returns the first whitespace-separated field of a file,
// "" when it cannot be read (non-Linux hosts).
func firstField(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if f := strings.Fields(string(data)); len(f) > 0 {
		return f[0]
	}
	return ""
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MiB, 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
