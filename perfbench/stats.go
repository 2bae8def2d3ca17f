package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durMs converts durations to milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// timeSetup runs setup at least reps times, and more while the set-ups so
// far took under minSetupTotal, and returns the median wall time and the
// last repetition's state; earlier states are released with drop. Cheap
// set-ups are repeated many times so their median is steady.
func timeSetup[T any](reps int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var secs []float64
	var total time.Duration
	for i := 0; i < reps || (total < minSetupTotal && i < maxSetupReps); i++ {
		if i > 0 && drop != nil {
			drop(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		d := time.Since(start)
		total += d
		secs = append(secs, d.Seconds())
		last = v
	}
	return last, median(secs), nil
}

// Bounds for repeating cheap set-ups.
const (
	minSetupTotal = time.Second
	maxSetupReps  = 20000
)
