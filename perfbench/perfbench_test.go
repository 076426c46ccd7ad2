package main

import (
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
)

// shortInproc is a workload shrunk to run in well under a second.
func shortInproc(t *testing.T, name string) *inprocWorkload {
	t.Helper()
	cfg := inprocWorkloads[name]
	cfg.blocks, cfg.blockBytes, cfg.jobs = 8, 16<<10, min(cfg.jobs, 4)
	w, err := newInproc(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func inprocNames() []string {
	names := make([]string, 0, len(inprocWorkloads))
	for name := range inprocWorkloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestTraceForwardsOptionalInterfaces checks that every wrapper keeps
// exactly the optional interfaces the runtime and engine type-assert
// on the value it wraps.
func TestTraceForwardsOptionalInterfaces(t *testing.T) {
	for _, name := range inprocNames() {
		w := shortInproc(t, name)
		plain, err := w.build(nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := w.build(&layerTrace{})
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range []*inprocEnv{plain, traced} {
			var sched scheduler.Scheduler = env.sched
			var ex runtime.Executor = env.exec
			if _, ok := sched.(scheduler.StageAware); !ok {
				t.Errorf("%s: scheduler %T is not StageAware", name, sched)
			}
			if _, ok := ex.(runtime.StageExecutor); !ok {
				t.Errorf("%s: executor %T is not a StageExecutor", name, ex)
			}
			if _, ok := ex.(runtime.FailureReporter); !ok {
				t.Errorf("%s: executor %T is not a FailureReporter", name, ex)
			}
			if _, ok := ex.(runtime.CacheStatsSource); !ok {
				t.Errorf("%s: executor %T is not a CacheStatsSource", name, ex)
			}
			if !runtime.WillPipeline(sched, ex, runtime.Options{Pipeline: true}) {
				t.Errorf("%s: %T/%T would not pipeline", name, sched, ex)
			}
		}
	}
	lt := &layerTrace{}
	counting := traceMapper(shortInproc(t, "shared-scan").specs[1].Mapper, lt)
	if _, ok := counting.(mapreduce.InputRecordCounter); !ok {
		t.Error("traced counting mapper lost InputRecordCounter")
	}
	plainFn := mapreduce.MapperFunc(func(dfs.BlockID, []byte, mapreduce.Emit) error { return nil })
	if _, ok := traceMapper(plainFn, lt).(mapreduce.InputRecordCounter); ok {
		t.Error("traced mapper gained InputRecordCounter its inner mapper lacks")
	}
}

// TestTracedRunMatchesUntraced checks that tracing changes nothing the
// workload executes: rounds, physical reads and every output digest,
// which must also equal the solo references.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range inprocNames() {
		w := shortInproc(t, name)
		plain, err := w.execute(nil)
		if err != nil {
			t.Fatal(err)
		}
		lt := &layerTrace{}
		traced, err := w.execute(lt)
		if err != nil {
			t.Fatal(err)
		}
		if plain.failed != 0 || traced.failed != 0 {
			t.Fatalf("%s: %d untraced and %d traced jobs failed or mismatched their solo reference", name, plain.failed, traced.failed)
		}
		if plain.res.Rounds != traced.res.Rounds {
			t.Errorf("%s: rounds %d untraced, %d traced", name, plain.res.Rounds, traced.res.Rounds)
		}
		plainReads, tracedReads := plain.env.store.Stats().BlockReads, traced.env.store.Stats().BlockReads
		if plainReads != tracedReads {
			t.Errorf("%s: block reads %d untraced, %d traced", name, plainReads, tracedReads)
		}
		if got := lt.source.calls.Load(); got != tracedReads {
			t.Errorf("%s: traced block source saw %d reads, store counted %d", name, got, tracedReads)
		}
		if got := lt.rounds.Load(); got != int64(traced.res.Rounds) {
			t.Errorf("%s: traced scheduler formed %d rounds, runtime ran %d", name, got, traced.res.Rounds)
		}
		if len(lt.mapStages) != traced.res.Rounds || len(lt.reduceStages) != traced.res.Rounds {
			t.Errorf("%s: %d map and %d reduce stage spans for %d rounds", name, len(lt.mapStages), len(lt.reduceStages), traced.res.Rounds)
		}
		for id, d := range plain.digests {
			if traced.digests[id] != d {
				t.Errorf("%s: job %d digest differs between traced and untraced runs", name, id)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1000, 99}, {144, 90}, {100, 90}, {99, 75}, {72, 75}, {25, 50}, {19, 100}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCovered(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	ivs := []interval{{at(0), at(10)}, {at(5), at(20)}, {at(30), at(40)}}
	holes := []interval{{at(8), at(12)}, {at(35), at(50)}}
	if got := covered(ivs, holes, at(0), at(100)); got != 21*time.Millisecond {
		t.Errorf("covered = %v, want 21ms", got)
	}
	if got := covered(ivs, nil, at(2), at(32)); got != 20*time.Millisecond {
		t.Errorf("clipped covered = %v, want 20ms", got)
	}
}

// TestDaemonShort boots a real s3cluster master and workers, drives a
// few jobs through HTTP admission and checks their outputs and the
// daemon-only layers.
func TestDaemonShort(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs s3cluster")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "s3cluster")
	if out, err := exec.Command("go", "build", "-o", bin, "s3sched/cmd/s3cluster").CombinedOutput(); err != nil {
		t.Fatalf("building s3cluster: %v\n%s", err, out)
	}
	cfg := defaultDaemon
	cfg.blocks, cfg.blockBytes = 4, 16<<10
	cfg.jobs = []daemonJob{{"wordcount", "t"}, {"selection", "5"}, {"aggregation", ""}}
	cfg.repTimeout = 30 * time.Second
	w, err := newDaemon(cfg, 5, bin, dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.rep(true)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d of %d daemon jobs failed or mismatched their solo reference", r.failed, r.jobs)
	}
	if len(r.acks) != len(cfg.jobs) {
		t.Errorf("%d admission acks timed for %d jobs", len(r.acks), len(cfg.jobs))
	}
	for _, key := range []string{"journal.appends_per_job", "remote.rounds", "remote.master_cpu_s"} {
		if r.layers[key] <= 0 {
			t.Errorf("%s = %v, want > 0", key, r.layers[key])
		}
	}
	if r.setup <= 0 || r.makespan <= 0 || r.shareRatio <= 0 || r.peakRSS <= 0 {
		t.Errorf("end-to-end metrics not all positive: %+v", r)
	}
}

func TestQuietKeepsLeastStolen(t *testing.T) {
	var reps []*repResult
	for _, s := range []float64{0.3, 0.1, 0.5, 0, 0.2, 0.4, 0.05, 0.6, 0.7, 0.8, 0.15, 0.9, 0.35, 1} {
		reps = append(reps, &repResult{steal: s})
	}
	want := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8} // the quietKeep least stolen
	if got := steals(quiet(reps)); !slices.Equal(got, want) {
		t.Errorf("quiet kept %v, want %v", got, want)
	}
	if n := len(quiet(reps[:2])); n != 2 {
		t.Errorf("quiet of two reps kept %d, want both", n)
	}
	// Undisturbed repetitions beyond quietKeep are kept too.
	var calm []*repResult
	for i := 0; i < 20; i++ {
		calm = append(calm, &repResult{steal: quietSteal * float64(i%2)})
	}
	calm = append(calm, &repResult{steal: 0.5})
	if n := len(quiet(calm)); n != 20 {
		t.Errorf("quiet kept %d of 20 undisturbed reps and one stolen one, want 20", n)
	}
}

func steals(reps []*repResult) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, r.steal)
	}
	return out
}
