package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"time"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/driver"
	"s3sched/internal/experiments"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// inprocConfig shapes one in-process workload: a materialized text
// corpus on an in-memory dfs store, scanned by the real mapreduce
// engine under the S^3 scheduler with stage pipelining.
type inprocConfig struct {
	blocks     int
	blockBytes int64
	// vocab selects a synthetic vocabulary (0 = the built-in list).
	vocab int
	// cacheShare sizes a 2q block cache as a share of the corpus,
	// summed over nodes (0 = no cache).
	cacheShare float64
	jobs       int
	factory    string
	emitFactor int
	// gapPasses spaces arrivals, in single-job pass times. The schedule
	// does not depend on the seed, so every seed does the same rounds'
	// worth of work over a different corpus.
	gapPasses float64
}

const corpusName = "corpus"

// The cluster shape both in-process workloads run on: two single-slot
// nodes, 4-block segments and two reduce partitions per job.
const (
	inprocNodes   = 2
	inprocSlots   = 1
	segmentBlocks = 4
	numReduce     = 2
)

// pricedExec is the in-process executor: the engine does the real
// work while a sim executor over the same store prices each round, as
// s3compare's engine cells do. The scheduler therefore sees the same
// virtual durations on every run and forms the identical round
// sequence; only the wall clock measures the work.
type pricedExec struct {
	inner engineExec
	timer *sim.Executor
}

var _ engineExec = (*pricedExec)(nil)

func (p *pricedExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	mapDur, stage, err := p.ExecMapStage(r)
	if err != nil {
		return 0, err
	}
	redDur, err := stage()
	return mapDur + redDur, err
}

func (p *pricedExec) ExecMapStage(r scheduler.Round) (vclock.Duration, runtime.ReduceStage, error) {
	_, innerStage, err := p.inner.ExecMapStage(r)
	if err != nil {
		return 0, nil, err
	}
	mapDur, timerStage, err := p.timer.ExecMapStage(r)
	if err != nil {
		return 0, nil, err
	}
	return mapDur, func() (vclock.Duration, error) {
		if _, err := innerStage(); err != nil {
			return 0, err
		}
		return timerStage()
	}, nil
}

func (p *pricedExec) TakeJobFailures() []scheduler.JobFailure { return p.inner.TakeJobFailures() }
func (p *pricedExec) FaultStats() metrics.FaultStats          { return p.inner.FaultStats() }
func (p *pricedExec) CacheStats() metrics.CacheStats          { return p.inner.CacheStats() }

// inprocWorkload is one seed's materialized inputs plus the solo
// reference digests every repetition is checked against.
type inprocWorkload struct {
	cfg    inprocConfig
	blocks [][]byte
	jobs   []runtime.Arrival
	specs  map[scheduler.JobID]mapreduce.JobSpec
	ref    map[scheduler.JobID]string
}

// newInproc generates the corpus and the arrival schedule from seed
// and computes the solo references. Nothing here is timed.
func newInproc(cfg inprocConfig, seed int64) (*inprocWorkload, error) {
	w := &inprocWorkload{cfg: cfg, blocks: make([][]byte, cfg.blocks)}
	gen := workload.NewTextGen(seed)
	if cfg.vocab > 0 {
		gen = workload.NewTextGenVocab(seed, cfg.vocab)
	}
	for i := range w.blocks {
		w.blocks[i] = gen.Block(i, cfg.blockBytes)
	}
	w.specs = make(map[scheduler.JobID]mapreduce.JobSpec, cfg.jobs)
	prefixes := workload.DistinctPrefixes(cfg.jobs)
	for i := 0; i < cfg.jobs; i++ {
		j := workload.FileJob{
			ID: scheduler.JobID(i + 1), File: corpusName, Factory: cfg.factory,
			Param: prefixes[i], NumReduce: numReduce, EmitFactor: cfg.emitFactor,
		}
		spec, err := j.EngineSpec(workload.ContentText)
		if err != nil {
			return nil, err
		}
		w.specs[j.ID] = spec
		w.jobs = append(w.jobs, runtime.Arrival{Job: j.Meta()})
	}
	pass, err := w.passTime()
	if err != nil {
		return nil, err
	}
	for i := range w.jobs {
		w.jobs[i].At = vclock.Time(float64(i) * cfg.gapPasses * float64(pass))
	}
	w.ref = make(map[scheduler.JobID]string, len(w.specs))
	for id, spec := range w.specs {
		store, err := w.newStore(nil)
		if err != nil {
			return nil, err
		}
		res, err := mapreduce.NewEngine(mapreduce.MustCluster(store, inprocSlots)).RunJob(spec)
		if err != nil {
			return nil, fmt.Errorf("solo reference of job %d: %w", id, err)
		}
		w.ref[id] = digestKVs(res.Output)
	}
	return w, nil
}

func (w *inprocWorkload) corpusBytes() int64 { return int64(w.cfg.blocks) * w.cfg.blockBytes }

// newStore ingests the corpus into a fresh store: every block is
// copied into the store's own memory and served by a block-source
// func, traced when t is non-nil.
func (w *inprocWorkload) newStore(t *layerTrace) (*dfs.Store, error) {
	store, err := dfs.NewStore(inprocNodes, 1)
	if err != nil {
		return nil, err
	}
	disk := make([][]byte, len(w.blocks))
	for i, b := range w.blocks {
		disk[i] = append([]byte(nil), b...)
	}
	src := func(i int) ([]byte, error) { return disk[i], nil }
	if t != nil {
		src = traceSource(src, t)
	}
	if _, err := store.AddGeneratedFile(corpusName, len(disk), w.cfg.blockBytes, src); err != nil {
		return nil, err
	}
	return store, nil
}

func (w *inprocWorkload) plan(store *dfs.Store) (*dfs.SegmentPlan, error) {
	f, err := store.File(corpusName)
	if err != nil {
		return nil, err
	}
	return dfs.PlanSegments(f, segmentBlocks)
}

// passTime prices one single-job pass over the corpus in virtual
// seconds — the unit the arrival schedule is laid out in.
func (w *inprocWorkload) passTime() (vclock.Duration, error) {
	store, err := dfs.NewStore(inprocNodes, 1)
	if err != nil {
		return 0, err
	}
	f, err := store.AddMetaFile(corpusName, w.cfg.blocks, w.cfg.blockBytes)
	if err != nil {
		return 0, err
	}
	plan, err := dfs.PlanSegments(f, segmentBlocks)
	if err != nil {
		return 0, err
	}
	timer := sim.NewExecutor(sim.NewCluster(inprocNodes, inprocSlots), store, experiments.NormalModel())
	var total vclock.Duration
	for s := 0; s < plan.NumSegments(); s++ {
		d, err := timer.ExecRound(scheduler.Round{Segment: s, Blocks: plan.Blocks(s), Jobs: []scheduler.JobMeta{w.jobs[0].Job}})
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// inprocEnv is one repetition's freshly built system.
type inprocEnv struct {
	store *dfs.Store
	sched stagedScheduler
	eng   *driver.EngineExecutor
	exec  engineExec
}

// build constructs store, cache, scheduler and engine — the set-up
// setup_s times. With t set, every layer boundary is wrapped.
func (w *inprocWorkload) build(t *layerTrace) (*inprocEnv, error) {
	store, err := w.newStore(t)
	if err != nil {
		return nil, err
	}
	plan, err := w.plan(store)
	if err != nil {
		return nil, err
	}
	s3 := core.New(plan, nil)
	if w.cfg.cacheShare > 0 {
		perNode := int64(w.cfg.cacheShare * float64(w.corpusBytes()) / float64(inprocNodes))
		if _, err := store.EnableCachePolicy(perNode, dfs.Policy2Q); err != nil {
			return nil, err
		}
		s3.SetScanHinter(store.HandleScanHint)
	}
	specs := w.specs
	if t != nil {
		specs = make(map[scheduler.JobID]mapreduce.JobSpec, len(w.specs))
		for id, spec := range w.specs {
			specs[id] = traceSpec(spec, t)
		}
	}
	eng := driver.NewEngineExecutor(mapreduce.NewEngine(mapreduce.MustCluster(store, inprocSlots)), specs)
	env := &inprocEnv{store: store, sched: s3, eng: eng, exec: eng}
	if t != nil {
		env.sched = &tracedScheduler{inner: s3, t: t}
		env.exec = &tracedExec{inner: eng, t: t}
	}
	env.exec = &pricedExec{
		inner: env.exec,
		timer: sim.NewExecutor(sim.NewCluster(inprocNodes, inprocSlots), store, experiments.NormalModel()),
	}
	return env, nil
}

// inprocRun is what one repetition observed, before reduction to
// metrics.
type inprocRun struct {
	env              *inprocEnv
	res              *runtime.Result
	submitted, done  map[scheduler.JobID]time.Time
	runStart, runEnd time.Time
	setup            time.Duration
	failed           int
	digests          map[scheduler.JobID]string
}

// execute builds the system and runs the workload once.
func (w *inprocWorkload) execute(t *layerTrace) (*inprocRun, error) {
	begin := time.Now()
	env, err := w.build(t)
	if err != nil {
		return nil, err
	}
	run := &inprocRun{env: env, setup: time.Since(begin), done: make(map[scheduler.JobID]time.Time)}
	trace, err := runtime.NewTraceSource(w.jobs)
	if err != nil {
		return nil, err
	}
	src := newStampSource(trace, t)
	opts := runtime.Options{
		Pipeline: true,
		Hooks: runtime.Hooks{OnRoundDone: func(_ scheduler.Round, _ vclock.Time, completed []scheduler.JobID) {
			now := time.Now()
			for _, id := range completed {
				run.done[id] = now
			}
		}},
	}
	run.runStart = time.Now()
	run.res, err = runtime.Run(env.sched, env.exec, src, opts)
	run.runEnd = time.Now()
	if err != nil {
		return nil, err
	}
	run.submitted = src.submitted
	run.digests = make(map[scheduler.JobID]string, len(w.jobs))
	results := env.eng.Results()
	for _, a := range w.jobs {
		res, ok := results[a.Job.ID]
		if !ok {
			run.failed++
			continue
		}
		run.digests[a.Job.ID] = digestKVs(res.Output)
		if run.digests[a.Job.ID] != w.ref[a.Job.ID] {
			run.failed++
		}
	}
	return run, nil
}

// rep runs one measured repetition and reduces it to metrics.
func (w *inprocWorkload) rep(traced bool) (*repResult, error) {
	var t *layerTrace
	if traced {
		t = &layerTrace{}
	}
	var run *inprocRun
	peak, mem, err := measureProcess(func() error {
		var err error
		run, err = w.execute(t)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &repResult{
		setup:   run.setup.Seconds(),
		jobs:    len(w.jobs),
		failed:  run.failed,
		peakRSS: peak,
		layers:  map[string]float64{},
	}
	var first, last time.Time
	for id, sub := range run.submitted {
		d, ok := run.done[id]
		if !ok {
			continue
		}
		out.latencies = append(out.latencies, d.Sub(sub).Seconds())
		if first.IsZero() || sub.Before(first) {
			first = sub
		}
		if d.After(last) {
			last = d
		}
	}
	if len(out.latencies) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	out.makespan = last.Sub(first).Seconds()
	var logical int64
	for _, res := range run.env.eng.Results() {
		logical += res.Counters.Get(mapreduce.CounterMapInputBytes)
	}
	st := run.env.store.Stats()
	out.shareRatio = float64(logical) / float64(st.BytesScanned)
	cs := run.env.store.CacheStats()
	peakCarried := 0
	for _, a := range w.jobs {
		peakCarried = max(peakCarried, run.env.eng.PeakCarriedRecords(a.Job.ID))
	}
	l := out.layers
	l["driver.peak_carried_records"] = float64(peakCarried)
	l["mapreduce.failed_attempts"] = float64(run.env.exec.FaultStats().FailedAttempts)
	l["core.rounds"] = float64(run.res.Rounds)
	l["dfs.block_reads"] = float64(st.BlockReads)
	l["dfs.physical_mb"] = float64(st.BytesScanned) / (1 << 20)
	l["dfs.cache_hits"] = float64(cs.Hits)
	l["dfs.cache_misses"] = float64(cs.Misses)
	l["dfs.cache_hit_ratio"] = cs.HitRatio()
	mem.addTo(l)
	if t != nil {
		w.addTrace(l, t, run, first, last)
	}
	out.digests = run.digests
	return out, nil
}

// addTrace reduces a traced run's spans to per-layer metrics and the
// makespan breakdown. Functions called from parallel tasks are summed
// as thread-seconds; the breakdown converts them to wall time by
// dividing by the tasks' parallelism, min(GOMAXPROCS, slots) for map
// work and min(GOMAXPROCS, reduce partitions) for reduce work.
func (w *inprocWorkload) addTrace(l map[string]float64, t *layerTrace, run *inprocRun, first, last time.Time) {
	procs := goruntime.GOMAXPROCS(0)
	pMap := float64(min(procs, inprocNodes*inprocSlots))
	pRed := float64(min(procs, numReduce))
	var mapStage, reduceStage time.Duration
	for _, iv := range t.mapStages {
		mapStage += iv.end.Sub(iv.start)
	}
	for _, iv := range t.reduceStages {
		reduceStage += iv.end.Sub(iv.start)
	}
	exposed := covered(t.reduceStages, t.mapStages, first, last).Seconds()
	mapFn, combFn, redFn, src := t.mapFn.seconds(), t.combineFn.seconds(), t.reduceFn.seconds(), t.source.seconds()
	mapSelf := math.Max(0, mapStage.Seconds()-(mapFn+combFn+src)/pMap)
	redSelf := math.Max(0, reduceStage.Seconds()-redFn/pRed)
	loopSelf := run.runEnd.Sub(run.runStart).Seconds() - mapStage.Seconds() - t.sched.seconds() - t.arrivals.seconds() - exposed

	l["workload.map_s"] = mapFn
	l["workload.map_calls"] = float64(t.mapFn.calls.Load())
	l["workload.records_out"] = float64(t.recordsOut.Load())
	l["workload.combine_s"] = combFn
	l["workload.reduce_s"] = redFn
	l["workload.reduce_keys"] = float64(t.reduceFn.calls.Load())
	l["mapreduce.map_stage_s"] = mapStage.Seconds()
	l["mapreduce.map_stage_self_s"] = mapSelf
	l["mapreduce.reduce_stage_s"] = reduceStage.Seconds()
	l["mapreduce.reduce_stage_self_s"] = redSelf
	l["runtime.reduce_exposed_s"] = exposed
	l["runtime.queue_wait_s"] = t.queueWait.Seconds()
	l["runtime.loop_self_s"] = math.Max(0, loopSelf)
	l["runtime.arrivals_s"] = t.arrivals.seconds()
	l["core.decide_s"] = t.sched.seconds()
	l["core.calls"] = float64(t.sched.calls.Load())
	if n := t.rounds.Load(); n > 0 {
		l["core.batch_width_mean"] = float64(t.batchJobs.Load()) / float64(n)
	}
	l["dfs.source_s"] = src

	// Self-time rows of the breakdown: map-stage work split by layer,
	// the part of reduce stages no map stage hides (split between the
	// reduce function and the stage's own sort/merge), and the engine
	// goroutine's scheduler and arrival calls. What no span covers is
	// the runtime loop's own time: the unattributed remainder.
	redShare := 0.0
	if reduceStage > 0 {
		redShare = math.Min(1, redFn/pRed/reduceStage.Seconds())
	}
	l["self.workload.map"] = mapFn / pMap
	l["self.workload.combine"] = combFn / pMap
	l["self.workload.reduce"] = exposed * redShare
	l["self.dfs.source"] = src / pMap
	l["self.mapreduce.map_stage"] = mapSelf
	l["self.mapreduce.reduce_stage"] = exposed * (1 - redShare)
	l["self.core"] = t.sched.seconds()
	l["self.runtime.arrivals"] = t.arrivals.seconds()
}

func (w *inprocWorkload) describe() map[string]any {
	c := w.cfg
	var cache any = "none"
	if c.cacheShare > 0 {
		cache = map[string]any{"policy": dfs.Policy2Q, "share_of_corpus": c.cacheShare}
	}
	return map[string]any{
		"corpus_bytes":   w.corpusBytes(),
		"blocks":         c.blocks,
		"block_bytes":    c.blockBytes,
		"segment_blocks": segmentBlocks,
		"vocab":          c.vocab,
		"nodes":          inprocNodes,
		"slots_per_node": inprocSlots,
		"cache":          cache,
		"jobs":           c.jobs,
		"factory":        c.factory,
		"emit_factor":    c.emitFactor,
		"num_reduce":     numReduce,
		"pipeline":       true,
		"arrival_gap":    fmt.Sprintf("%.3f passes", c.gapPasses),
	}
}
