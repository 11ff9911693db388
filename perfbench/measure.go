package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLadder lists the percentiles a tail figure may use, highest
// first. It tops out at p99, the percentile the serving SLO names.
var tailLadder = []float64{99, 98, 97.5, 95, 90, 75}

// tailPercentile is the highest percentile of the ladder that leaves at
// least ten of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 0
}

// summary is a timing reported as a median plus the highest percentile
// with ten samples beyond it.
type summary struct {
	n         int
	p50, tail float64
	tailP     float64
}

func summarize(xs []float64) summary {
	s := summary{n: len(xs), p50: median(xs), tailP: tailPercentile(len(xs))}
	if s.tailP > 0 {
		s.tail = percentile(xs, s.tailP)
	} else {
		s.tail = percentile(xs, 100)
	}
	return s
}

func (s summary) String() string {
	if s.tailP == 0 {
		return fmt.Sprintf("p50=%.3f max=%.3f n=%d (no percentile has ten samples beyond it)", s.p50, s.tail, s.n)
	}
	return fmt.Sprintf("p50=%.3f p%g=%.3f n=%d", s.p50, s.tailP, s.tail, s.n)
}

// procSample is the calling process's resource use at one instant.
type procSample struct {
	wall       time.Time
	cpu        time.Duration // user + system
	totalAlloc uint64        // Go heap bytes allocated since start
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
	}
}

// peakRSSMB is the calling process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapInuseMB is the calling process's in-use heap after a collection.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// settledGoroutines counts goroutines once exiting ones have gone, or
// after a second at most.
func settledGoroutines(baseline int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > baseline && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
