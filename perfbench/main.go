// Command perfbench is the repository's wall-clock benchmark. It runs
// only real code — the in-process runtime + mapreduce engine, and the
// s3cluster master and workers over loopback — on three workloads:
//
//	shared-scan   in-process: a dozen staggered wordcount jobs share a
//	              circular scan over a text corpus with a 2q block cache
//	heavy-reduce  in-process: a few sparse heavy-wordcount jobs, no
//	              combiner, no cache; shuffle, reduce and GC dominate
//	daemon        s3cluster -serve with two workers; an open-loop HTTP
//	              client submits wordcount, selection and aggregation
//
// Usage:
//
//	perfbench -workload shared-scan -seed 1 -seconds 20 -trace 0 \
//	    [-s3cluster path/to/s3cluster] [-workdir dir]
//
// Inputs are generated from -seed before any clock starts; every job's
// output is checked against its solo-reference digest. The benchmark
// repeats the workload for -seconds and prints medians as one JSON
// object on the last line of standard output. With -trace 0 it reports
// the end-to-end metrics; with -trace 1 it alternates untraced and
// traced repetitions and reports the per-layer metrics of the traced
// ones, the tracing overhead, and a per-layer breakdown of makespan.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	"s3sched/internal/scheduler"
)

// repResult is one repetition's measurements.
type repResult struct {
	setup, makespan, shareRatio, peakRSS float64
	latencies                            []float64
	// acks are the daemon's POST /jobs acknowledgement times in ms,
	// pooled across repetitions like latencies.
	acks         []float64
	jobs, failed int
	// steal is the CPU time the hypervisor took from this machine per
	// second of the repetition (in CPUs), from /proc/stat.
	steal float64
	// layers holds per-layer metrics; keys with the "self." prefix are
	// breakdown rows (wall seconds of makespan), not reported metrics.
	layers  map[string]float64
	digests map[scheduler.JobID]string
}

// workloadRunner runs repetitions of one workload for one seed.
type workloadRunner interface {
	rep(traced bool) (*repResult, error)
	// describe reports the workload's input sizes and configuration.
	describe() map[string]any
}

// inprocWorkloads are the in-process workload shapes, by name.
// heavy-reduce spaces its jobs more than a pass apart, so none shares a
// scan: with passes overlapping (0.75 apart), reduce stages queued
// behind each other and the run-to-run spread of the latency tail on a
// 2-vCPU VM was 0.15 of its median, against 0.04 with the jobs apart.
var inprocWorkloads = map[string]inprocConfig{
	"shared-scan": {
		blocks: 32, blockBytes: 128 << 10, cacheShare: 0.5,
		jobs: 12, factory: "wordcount", gapPasses: 1.0 / 12,
	},
	"heavy-reduce": {
		blocks: 16, blockBytes: 256 << 10, vocab: 20000,
		jobs: 6, factory: "heavy-wordcount", emitFactor: 6, gapPasses: 1.25,
	},
}

// endToEnd lists the -trace 0 metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"makespan_s", "s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_tail_s", "s"},
	{"scan_share_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the -trace 1 metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"workload.map_s", "s"},
	{"workload.map_calls", "count"},
	{"workload.records_out", "count"},
	{"workload.combine_s", "s"},
	{"workload.reduce_s", "s"},
	{"workload.reduce_keys", "count"},
	{"mapreduce.map_stage_s", "s"},
	{"mapreduce.map_stage_self_s", "s"},
	{"mapreduce.reduce_stage_s", "s"},
	{"mapreduce.reduce_stage_self_s", "s"},
	{"mapreduce.failed_attempts", "count"},
	{"driver.peak_carried_records", "count"},
	{"runtime.reduce_exposed_s", "s"},
	{"runtime.queue_wait_s", "s"},
	{"runtime.loop_self_s", "s"},
	{"runtime.arrivals_s", "s"},
	{"core.decide_s", "s"},
	{"core.calls", "count"},
	{"core.rounds", "count"},
	{"core.batch_width_mean", "jobs"},
	{"dfs.source_s", "s"},
	{"dfs.block_reads", "count"},
	{"dfs.physical_mb", "MiB"},
	{"dfs.cache_hits", "count"},
	{"dfs.cache_misses", "count"},
	{"dfs.cache_hit_ratio", "ratio"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"status.admit_ack_ms_p50", "ms"},
	{"status.admit_ack_ms_tail", "ms"},
	{"journal.appends_per_job", "count"},
	{"journal.mb_per_job", "MiB"},
	{"remote.round_busy_s", "s"},
	{"remote.rounds", "count"},
	{"remote.master_cpu_s", "s"},
	{"remote.worker_cpu_s", "s"},
	{"remote.master_rss_mb", "MiB"},
	{"bench.generator_late_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// minReps is the fewest measured repetitions of each kind a run takes,
// however short -seconds is. quiet keeps at least quietKeep of them,
// and the tail percentiles are chosen for quietKeep repetitions' worth
// of samples, so every run reports the same percentile however many
// repetitions the machine's speed allowed. quietSteal is the stolen
// CPU time per second (in CPUs) below which a repetition counts as
// undisturbed.
const (
	minReps    = 3
	quietKeep  = 12
	quietSteal = 0.02
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: shared-scan | heavy-reduce | daemon")
	seed := flag.Int64("seed", 1, "input and arrival-schedule seed")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	traceMode := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	clusterBin := flag.String("s3cluster", "", "daemon: path to the s3cluster binary")
	workdir := flag.String("workdir", os.TempDir(), "daemon: directory for journals and logs")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1, *clusterBin, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, budget time.Duration, traced bool, clusterBin, workdir string) error {
	var wl workloadRunner
	var err error
	if cfg, ok := inprocWorkloads[name]; ok {
		wl, err = newInproc(cfg, seed)
	} else if name == "daemon" {
		wl, err = newDaemon(defaultDaemon, seed, clusterBin, workdir)
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return fmt.Errorf("preparing %s: %w", name, err)
	}

	// One unmeasured repetition lets lazy set-up, page faults and the
	// heap's growth settle before the clock starts.
	if _, err := wl.rep(false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var plain, tracedReps []*repResult
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; ; i++ {
		tr := traced && i%2 == 1
		stolen0, begin := stolenSeconds(), time.Now()
		r, err := wl.rep(tr)
		if err != nil {
			return err
		}
		r.steal = (stolenSeconds() - stolen0) / time.Since(begin).Seconds()
		attempted += r.jobs
		failed += r.failed
		if tr {
			tracedReps = append(tracedReps, r)
		} else {
			plain = append(plain, r)
		}
		fmt.Fprintf(os.Stderr, "rep %d traced=%v makespan=%.3fs setup=%.4fs share=%.2f steal=%.2f failed=%d\n", i, tr, r.makespan, r.setup, r.shareRatio, r.steal, r.failed)
		elapsed := time.Since(start)
		enough := len(plain) >= minReps && (!traced || len(tracedReps) >= minReps)
		if enough && elapsed+elapsed/time.Duration(i+1) > budget {
			break
		}
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	quietPlain, quietTraced := quiet(plain), quiet(tracedReps)
	desc := map[string]any{
		"workload":   name,
		"seed":       seed,
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
		"cpu":        cpuModel(),
		"input":      wl.describe(),
		"reps":       map[string]int{"untraced": len(plain), "untraced_kept": len(quietPlain), "traced": len(tracedReps), "traced_kept": len(quietTraced)},
		"steal_cpus": map[string]float64{"kept_max": maxSteal(quietPlain), "all_max": maxSteal(plain)},
	}
	desc["job_error_ratio"] = float64(failed) / float64(attempted)
	// Every repetition submits the same jobs, so quietKeep repetitions
	// pool this percentile's worth of latency and admission samples.
	pct := tailPercentile(quietKeep * plain[0].jobs)
	if !traced {
		var lat []float64
		for _, r := range quietPlain {
			lat = append(lat, r.latencies...)
		}
		desc["latency_tail"] = map[string]any{"percentile": pct, "n": len(lat)}
		values := map[string]float64{
			"makespan_s":         medianOf(quietPlain, func(r *repResult) float64 { return r.makespan }),
			"job_latency_p50_s":  median(lat),
			"job_latency_tail_s": quantile(lat, float64(pct)/100),
			"scan_share_ratio":   medianOf(quietPlain, func(r *repResult) float64 { return r.shareRatio }),
			"peak_rss_mb":        medianOf(quietPlain, func(r *repResult) float64 { return r.peakRSS }),
			"setup_s":            medianOf(quietPlain, func(r *repResult) float64 { return r.setup }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	} else {
		span := func(r *repResult) float64 { return r.makespan }
		overhead := 100 * (medianOf(quietTraced, span)/medianOf(quietPlain, span) - 1)
		desc["trace_overhead_pct"] = overhead
		for _, m := range perLayer {
			v := medianOf(quietTraced, func(r *repResult) float64 { return r.layers[m.name] })
			if m.name == "bench.trace_overhead_pct" {
				v = overhead
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		var acks []float64
		for _, r := range quietTraced {
			acks = append(acks, r.acks...)
		}
		if len(acks) > 0 {
			desc["admit_ack_tail"] = map[string]any{"percentile": pct, "n": len(acks)}
			res.Metrics["status.admit_ack_ms_p50"] = metricValue{median(acks), "ms"}
			res.Metrics["status.admit_ack_ms_tail"] = metricValue{quantile(acks, float64(pct)/100), "ms"}
		}
		if _, inproc := wl.(*inprocWorkload); inproc {
			if err := checkFidelity(plain, tracedReps); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: traced run diverged:", err)
				res.Correct = false
			}
		}
		printBreakdown(os.Stdout, name, quietTraced, overhead)
	}
	descJSON, err := json.Marshal(desc)
	if err != nil {
		return err
	}
	fmt.Printf("# descriptor %s\n", descJSON)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d of %d jobs failed or produced wrong output", failed, attempted)
	}
	return nil
}

// quiet returns the repetitions the hypervisor interfered with least:
// the quietKeep of them (all, if fewer) with the least stolen CPU time
// per second, and every other one that lost no more than quietSteal.
// On a host that steals nothing it keeps every repetition. Contention
// from other guests on a shared machine slows whole stretches of a run
// and would otherwise decide the medians.
func quiet(reps []*repResult) []*repResult {
	sorted := append([]*repResult(nil), reps...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].steal < sorted[b].steal })
	keep := min(len(sorted), quietKeep)
	for keep < len(sorted) && sorted[keep].steal <= quietSteal {
		keep++
	}
	return sorted[:keep]
}

func maxSteal(reps []*repResult) float64 {
	m := 0.0
	for _, r := range reps {
		m = max(m, r.steal)
	}
	return m
}

func medianOf(reps []*repResult, f func(*repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// checkFidelity requires traced repetitions to execute exactly what
// untraced ones do: the same rounds, the same physical reads and the
// same outputs. It applies to the in-process workloads, whose round
// sequence is fixed by the cost model; the daemon's depends on timing.
func checkFidelity(plain, traced []*repResult) error {
	for _, key := range []string{"core.rounds", "dfs.block_reads"} {
		for _, t := range traced {
			for _, p := range plain {
				if t.layers[key] != p.layers[key] {
					return fmt.Errorf("%s: traced %v, untraced %v", key, t.layers[key], p.layers[key])
				}
			}
		}
	}
	for _, t := range traced {
		for _, p := range plain {
			for id, d := range p.digests {
				if t.digests[id] != d {
					return fmt.Errorf("job %d output digest differs between traced and untraced runs", id)
				}
			}
		}
	}
	return nil
}

// printBreakdown renders the traced makespan as self time per layer,
// with the remainder no span covers listed as unattributed.
func printBreakdown(w *os.File, name string, reps []*repResult, overhead float64) {
	makespan := medianOf(reps, func(r *repResult) float64 { return r.makespan })
	rows := map[string]bool{}
	for _, r := range reps {
		for k := range r.layers {
			if strings.HasPrefix(k, "self.") {
				rows[k] = true
			}
		}
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# breakdown %s: makespan %.3f s (median of %d traced reps), tracing overhead %+.1f%%\n",
		name, makespan, len(reps), overhead)
	fmt.Fprintf(w, "#   %-30s %9s %7s\n", "layer (self time)", "s", "share")
	sum := 0.0
	for _, k := range keys {
		v := medianOf(reps, func(r *repResult) float64 { return r.layers[k] })
		sum += v
		fmt.Fprintf(w, "#   %-30s %9.3f %6.1f%%\n", strings.TrimPrefix(k, "self."), v, 100*v/makespan)
	}
	rest := makespan - sum
	fmt.Fprintf(w, "#   %-30s %9.3f %6.1f%%\n", "unattributed", rest, 100*rest/makespan)
}
