package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTimes is the process's user and system CPU time so far.
type cpuTimes struct{ user, sys time.Duration }

func readCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

// rssMB returns the process's current resident set size in MiB, read
// from /proc/self/statm (0 when unavailable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// rssPeak samples the resident set every few milliseconds and keeps the
// peak since the last take, so each round of a run gets its own peak.
type rssPeak struct {
	peak atomic.Uint64 // float64 bits, MiB
	stop chan struct{}
	done chan struct{}
}

func startRSS(every time.Duration) *rssPeak {
	r := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	r.observe()
	go func() {
		defer close(r.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.observe()
			}
		}
	}()
	return r
}

func (r *rssPeak) observe() {
	v := rssMB()
	for {
		old := r.peak.Load()
		if v <= math.Float64frombits(old) || r.peak.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// take returns the peak since the previous take and restarts the window.
func (r *rssPeak) take() float64 {
	r.observe()
	return math.Float64frombits(r.peak.Swap(math.Float64bits(rssMB())))
}

// close stops the sampler and waits for it to exit.
func (r *rssPeak) close() {
	close(r.stop)
	<-r.done
}

// memSnap is the slice of runtime.MemStats the benchmark reports.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}
