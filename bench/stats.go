package main

// Order statistics, process counters and the machine descriptor.

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified. Empty input yields 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// procSample is a point reading of the process-wide counters the
// process.* metrics are differences of.
type procSample struct {
	cpu     time.Duration // user + system, from getrusage
	mallocs uint64
	gcCPU   float64 // seconds of CPU the collector used
	allCPU  float64 // seconds of CPU available to the runtime
}

func readProc() procSample {
	var ru syscall.Rusage
	var p procSample
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.mallocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		p.allCPU = s[2].Value.Float64()
	}
	return p
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// machine is the descriptor every result and trace file carries, so a
// number is never read without the box it came from.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func describeMachine() machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// A checkout that is not a git repository (the driver's) has no commit.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}
