package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// hostFingerprint describes the machine a run measured, so numbers from
// different hosts are never compared unknowingly.
type hostFingerprint struct {
	NumCPU     int
	GOMAXPROCS int
	CPUMax     string // cgroup CPU quota and period ("max 100000" = no quota)
	CPUModel   string
	GoVersion  string
}

func fingerprint() hostFingerprint {
	return hostFingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUMax:     cpuMax(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func (h hostFingerprint) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d cgroup cpu.max=%q cpu=%q go=%s",
		h.NumCPU, h.GOMAXPROCS, h.CPUMax, h.CPUModel, h.GoVersion)
}

// overCommitted names every load-generation resource of a run that uses
// more than nproc threads, sessions or workers; such a run measures the
// generator's contention as much as the program.
func overCommitted(nproc int, use map[string]int) []string {
	var out []string
	for _, k := range sortedKeys(use) {
		if use[k] > nproc {
			out = append(out, fmt.Sprintf("%s=%d > nproc=%d", k, use[k], nproc))
		}
	}
	return out
}

// cpuMax reads the cgroup CPU quota: cgroup v2 cpu.max, or the v1
// quota and period in the same "quota period" form (-1 = no quota).
func cpuMax() string {
	if v := readFirstLine("/sys/fs/cgroup/cpu.max"); v != "unknown" {
		return v
	}
	q, p := readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), readFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if q == "unknown" {
		return q
	}
	return q + " " + p + " (cgroup v1)"
}

func readFirstLine(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if sc.Scan() {
		return strings.TrimSpace(sc.Text())
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
