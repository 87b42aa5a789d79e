package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// pinnedProcs is the GOMAXPROCS every run uses, whatever the host has:
// the benchmark was sized on a two-core host, and the simulator drives
// one goroutine, so the second core only absorbs the collector.
const pinnedProcs = 2

// host describes where a result was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	// CalibNs is the median calibration reading of the run.
	CalibNs float64 `json:"calib_ns"`
}

func hostRecord() host {
	return host{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
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

// gitCommit reads the revision the go tool stamped into the binary; a
// checkout that is not a git repository has none.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// refCalibNs is the calibration reading of the host the benchmark was
// sized on, when that host was quiet. Host-time metrics are reported in
// seconds of a host that reads exactly this; see hostFactor.
const refCalibNs = 4.3

// calibrate times a fixed loop of integer arithmetic and dependent
// loads over a 256 KB table — the two things the simulator's hot path
// does — and returns nanoseconds per step, averaged over about 70 ms so
// that it sees what a pass sees and not the luckiest instant.
func calibrate() float64 {
	const size, steps = 1 << 16, 1 << 24
	next := make([]uint32, size)
	// A single cycle through the table (i -> 5i+1 mod 2^16 is a full-
	// period LCG), so each load depends on the last.
	for i := range next {
		next[i] = uint32((i*5 + 1) % size)
	}
	t := time.Now()
	var at uint32
	x := uint64(88172645463325252)
	for i := 0; i < steps; i++ {
		at = next[at]
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += uint64(at)
	}
	ns := float64(time.Since(t).Nanoseconds()) / steps
	calibSink += x
	return ns
}

// hostFactor converts host seconds measured between two calibration
// readings into seconds of the reference host. The sandbox shares its
// cores: while this was sized its speed drifted by 40% over ten minutes
// and back, the calibration loop drifting with it, and ten runs' wall_s
// spread over 26% of their median as measured against 8% once each was
// scaled by its own calibration.
func hostFactor(before, after float64) float64 {
	return refCalibNs / ((before + after) / 2)
}

// peakRSSMB reads the process's high-water resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
