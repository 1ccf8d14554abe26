package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostStamp says where and on what a result was measured; every output
// carries one, so two sets are only compared knowingly across hosts.
type hostStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	Commit     string `json:"commit"`
}

// commit is set by bench/run.sh with -ldflags "-X main.commit=...".
var commit = "unknown"

func stampHost() hostStamp {
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LLCBytes:   lastLevelCacheBytes(),
		Commit:     commit,
	}
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

// lastLevelCacheBytes reads cpu0's highest-level cache size from sysfs;
// 0 when the host does not say.
func lastLevelCacheBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best, bestLevel int64
	for _, d := range dirs {
		level, err := strconv.ParseInt(readTrimmed(filepath.Join(d, "level")), 10, 64)
		if err != nil || level < bestLevel {
			continue
		}
		size := readTrimmed(filepath.Join(d, "size")) // e.g. "2048K"
		mult := int64(1)
		switch {
		case strings.HasSuffix(size, "K"):
			mult, size = 1<<10, strings.TrimSuffix(size, "K")
		case strings.HasSuffix(size, "M"):
			mult, size = 1<<20, strings.TrimSuffix(size, "M")
		}
		if n, err := strconv.ParseInt(size, 10, 64); err == nil {
			best, bestLevel = n*mult, level
		}
	}
	return best
}

func readTrimmed(path string) string {
	b, _ := os.ReadFile(path) // a missing sysfs file reads as ""
	return strings.TrimSpace(string(b))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

var calibSink uint64

// calibrate times a fixed integer-hash loop in the benchmark's own
// code. It touches no memory, so it drifts with the host's clock speed
// and with neighbours stealing the CPU, not with anything in the repo;
// a before/after pair that disagrees explains a wall-time shift.
func calibrate() (ms float64) {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 40_000_000; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x += uint64(i)
	}
	calibSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
