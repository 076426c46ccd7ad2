package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"s3sched/internal/mapreduce"
)

// digestKVs fingerprints one job's output: sha256 over its records in
// key/value order, each framed by its lengths.
func digestKVs(kvs []mapreduce.KV) string {
	sorted := append([]mapreduce.KV(nil), kvs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Key != sorted[j].Key {
			return sorted[i].Key < sorted[j].Key
		}
		return sorted[i].Value < sorted[j].Value
	})
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", len(sorted))
	for _, kv := range sorted {
		fmt.Fprintf(h, "%d %d\n%s%s", len(kv.Key), len(kv.Value), kv.Key, kv.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []int{99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile in tailPercentiles
// that has at least ten of n samples beyond it, or 100 (the maximum)
// when none has.
func tailPercentile(n int) int {
	for _, p := range tailPercentiles {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 100
}

// memDelta is the Go runtime's allocation and GC work over a span.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (m memDelta) addTo(l map[string]float64) {
	l["go.alloc_mb"] = float64(m.allocBytes) / (1 << 20)
	l["go.gc_cycles"] = float64(m.gcCycles)
	l["go.gc_pause_s"] = m.gcPause.Seconds()
}

// measureProcess runs fn from a freshly collected heap and reports
// this process's peak resident set (sampled every 2ms) and Go memory
// work during it.
func measureProcess(fn func() error) (peakMB float64, mem memDelta, err error) {
	goruntime.GC()
	debug.FreeOSMemory()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if rss, ok := selfRSS(); ok && rss > peak {
				peak = rss
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err = fn()
	close(stop)
	wg.Wait()
	goruntime.ReadMemStats(&after)
	mem = memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	return float64(peak) / (1 << 20), mem, err
}

// selfRSS reads this process's resident set in bytes.
func selfRSS() (int64, bool) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * int64(os.Getpagesize()), true
}

// procStats is a child process's CPU time and peak resident set, read
// from /proc while it is alive.
type procStats struct {
	cpu     float64 // user+system seconds
	peakRSS float64 // MiB (VmHWM)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

func readProc(pid int) (procStats, error) {
	var ps procStats
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the full line.
	s := string(raw)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(rest[11], 64)
	st, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ps.cpu = (ut + st) / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return ps, fmt.Errorf("parsing VmHWM of %d: %w", pid, err)
			}
			ps.peakRSS = kb / 1024
		}
	}
	return ps, nil
}

// stolenSeconds reads the CPU time the hypervisor has taken from this
// machine's CPUs since boot (the steal column of /proc/stat).
func stolenSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / clockTicks
}

// cpuModel names the machine's processor, from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
