package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"s3sched/internal/benchfmt"
	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/driver"
	"s3sched/internal/faults"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/pipeline"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/sim"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Differential benchmark: run one workload file through the
// {scheduler} × {sim|engine} × {pipeline} × {cache} matrix and emit one
// benchfmt.Cell per configuration, every cell comparable because every
// cell saw the identical workload. Two properties make the report a
// regression gate rather than a one-off snapshot:
//
//   - Determinism. Sim cells are priced by the cost model. Engine
//     cells run the real in-process MapReduce for *outputs* but take
//     their *timings* from a sibling sim executor over the same store
//     (pricedExec below), so a report is byte-for-byte reproducible —
//     wall clocks never leak into it — and a sim cell and its engine
//     twin march through the same round sequence with the same TET.
//
//   - Output digests. Every engine cell digests its jobs' real
//     outputs; sim cells (which execute nothing) carry the reference
//     digest obtained by running each job *alone* on a fresh store.
//     All cells of a report carrying one identical digest is the
//     harness's proof that scan sharing, pipelining, caching and
//     scheduling order never change what a job computes.

// CompareOptions selects a sub-matrix. The zero value means the full
// matrix the workload supports.
type CompareOptions struct {
	// Schedulers is the scheme subset ("s3", "fifo", "mrs1"); nil =
	// all three.
	Schedulers []string
	// Engines is the execution subset (benchfmt.EngineSim,
	// benchfmt.EngineReal); nil = both, with the engine dropped for
	// meta-content workloads (no bytes to execute).
	Engines []string
	// Pipelines/Caches are the toggle subsets; nil = {off, on}, with
	// cache-on dropped when the workload has no cache budget.
	Pipelines []bool
	Caches    []bool
}

// CompareSchedulers are the schemes the harness compares: the paper's
// headline trio. MRShare runs as one batch of all jobs (mrs1), its
// strongest configuration for a known job set.
func CompareSchedulers() []string { return []string{"s3", "fifo", "mrs1"} }

// makeScheduler builds a fresh scheduler for the scheme. FIFO serves
// every plan from its one queue, and mrs1 batches each file's whole
// declared job set (jobsPerFile), its strongest configuration for a
// known pattern; both accept derived files registered mid-run. S^3
// keeps the single-plan constructor for a single-file workload with no
// DAG — the stage-aware one its pipelined baselines were pinned with —
// and runs the multi-file arbitrator otherwise.
func makeScheduler(name string, plans []*dfs.SegmentPlan, jobsPerFile map[string]int, multi bool) (scheduler.Scheduler, error) {
	switch name {
	case "fifo":
		f := scheduler.NewFIFO(plans[0], nil)
		for _, p := range plans[1:] {
			if err := f.AddPlan(p, 0); err != nil {
				return nil, err
			}
		}
		return f, nil
	case "s3":
		if !multi {
			return core.New(plans[0], nil), nil
		}
		return core.NewMultiFile(plans, nil)
	case "mrs1":
		sizes := make(map[string][]int, len(plans))
		for _, p := range plans {
			n := jobsPerFile[p.File().Name]
			if n < 1 {
				n = 1 // a file nobody reads yet still needs a valid batch plan
			}
			sizes[p.File().Name] = []int{n}
		}
		return scheduler.NewMultiMRShare(plans, sizes, nil)
	default:
		return nil, fmt.Errorf("experiments: unknown compare scheduler %q", name)
	}
}

// derivedGeometry resolves the block size and segment granularity of
// job id's derived output: inherited from the producing job's own
// input file, recursing through chained stages until a declared file
// grounds it.
func derivedGeometry(wf *workload.File, id scheduler.JobID) (int64, int, error) {
	for i := range wf.Jobs {
		if wf.Jobs[i].ID != id {
			continue
		}
		input := wf.Jobs[i].File
		for j := range wf.Files {
			if wf.Files[j].Name == input {
				return wf.Files[j].BlockBytes, wf.Files[j].SegmentBlocks, nil
			}
		}
		producer, ok := wf.DerivedProducer(input)
		if !ok {
			return 0, 0, fmt.Errorf("experiments: job %d reads unknown file %q", id, input)
		}
		return derivedGeometry(wf, producer)
	}
	return 0, 0, fmt.Errorf("experiments: no job %d in workload", id)
}

// derivedConsumers counts the jobs reading each derived file, keyed by
// producer id — the expectJobs hint AddPlan takes.
func derivedConsumers(wf *workload.File) map[scheduler.JobID]int {
	out := make(map[scheduler.JobID]int)
	for i := range wf.Jobs {
		if producer, ok := wf.DerivedProducer(wf.Jobs[i].File); ok {
			out[producer]++
		}
	}
	return out
}

// RunCompare runs the workload through the configured matrix and
// returns the report, cells in canonical order.
func RunCompare(wf *workload.File, opts CompareOptions) (*benchfmt.Report, error) {
	h := &wf.Header
	schedulers := opts.Schedulers
	if schedulers == nil {
		schedulers = CompareSchedulers()
	}
	engines := opts.Engines
	if engines == nil {
		engines = []string{benchfmt.EngineSim, benchfmt.EngineReal}
	}
	hasMeta := false
	for i := range wf.Files {
		if wf.Files[i].Content == workload.ContentMeta {
			hasMeta = true
		}
	}
	if hasMeta {
		kept := engines[:0:0]
		for _, e := range engines {
			if e == benchfmt.EngineReal {
				continue
			}
			kept = append(kept, e)
		}
		engines = kept
		if len(engines) == 0 {
			return nil, fmt.Errorf("experiments: workload %q is %s-content; engine cells cannot run", h.Name, workload.ContentMeta)
		}
	}
	pipelines := opts.Pipelines
	if pipelines == nil {
		pipelines = []bool{false, true}
	}
	caches := opts.Caches
	if caches == nil {
		caches = []bool{false}
		if h.CacheMBPerNode > 0 {
			caches = append(caches, true)
		}
	}
	for _, c := range caches {
		if c && h.CacheMBPerNode <= 0 {
			return nil, fmt.Errorf("experiments: workload %q has no cache budget; cache cells cannot run", h.Name)
		}
	}

	// The reference digest: each job run alone on a fresh, uncached,
	// fault-free store (dependencies' outputs pre-materialized for DAG
	// stages). Sim cells carry it directly; engine cells must reproduce
	// it. The reference also measures each derived file's block count —
	// the geometry sim cells price materialized stage outputs under.
	refDigest := ""
	var refBlocks map[scheduler.JobID]int
	if !hasMeta {
		var err error
		refDigest, refBlocks, err = soloReference(wf)
		if err != nil {
			return nil, fmt.Errorf("experiments: solo reference run: %w", err)
		}
	}

	report := &benchfmt.Report{
		Version:        benchfmt.Version,
		Workload:       h.Name,
		WorkloadDigest: wf.Digest(),
	}
	for _, schedName := range schedulers {
		for _, engine := range engines {
			for _, pipe := range pipelines {
				for _, cache := range caches {
					key := benchfmt.CellKey{Scheduler: schedName, Engine: engine, Pipeline: pipe, Cache: cache}
					cell, err := runCell(wf, key, refDigest, refBlocks)
					if err != nil {
						return nil, fmt.Errorf("experiments: cell %s: %w", key, err)
					}
					report.Cells = append(report.Cells, cell)
				}
			}
		}
	}
	report.Sort()
	if _, err := report.DigestConsensus(); err != nil {
		return nil, err
	}
	return report, nil
}

// runCell runs one matrix configuration from a completely fresh
// environment (store, scheduler, executor), so cells cannot contaminate
// each other.
func runCell(wf *workload.File, key benchfmt.CellKey, refDigest string, refBlocks map[scheduler.JobID]int) (benchfmt.Cell, error) {
	h := &wf.Header
	store, err := dfs.NewStore(h.Nodes, h.Replicas)
	if err != nil {
		return benchfmt.Cell{}, err
	}
	plans := make([]*dfs.SegmentPlan, len(wf.Files))
	jobsPerFile := make(map[string]int, len(wf.Files))
	for i := range wf.Files {
		file, err := wf.Files[i].AddTo(store)
		if err != nil {
			return benchfmt.Cell{}, err
		}
		plans[i], err = dfs.PlanSegments(file, wf.Files[i].SegmentBlocks)
		if err != nil {
			return benchfmt.Cell{}, err
		}
	}
	for i := range wf.Jobs {
		jobsPerFile[wf.Jobs[i].File]++
	}
	hasDAG := wf.HasDAG()
	multi := len(wf.Files) > 1 || hasDAG
	// Multi-file and DAG cells run the serial loop: the per-file
	// combinator does not forward MapDone, and pipelining multi-plan
	// FIFO alone would move pinned DAG cells. A "pipeline" cell key
	// there labels the requested mode, not the engaged one.
	pipe := key.Pipeline && !multi
	sched, err := makeScheduler(key.Scheduler, plans, jobsPerFile, multi)
	if err != nil {
		return benchfmt.Cell{}, err
	}
	entries := wf.Entries()
	arrivals := make([]driver.Arrival, len(entries))
	for i, e := range entries {
		arrivals[i] = driver.Arrival{Job: e.Job, At: e.At}
	}
	model := NormalModel()
	if h.Cost != nil {
		model = *h.Cost
	}

	var exec driver.Executor
	var engineExec *driver.EngineExecutor
	switch key.Engine {
	case benchfmt.EngineSim:
		simExec := sim.NewExecutor(sim.NewCluster(h.Nodes, h.SlotsPerNode), store, model)
		if key.Cache {
			// A v1 workload (no cachePolicy) prices under the original
			// cluster-aggregate LRU model, keeping existing baselines
			// byte-identical; a v2 policy selects the sharded policy twin
			// driven by the scheduler's scan hints.
			if h.CachePolicy == "" {
				if err := simExec.EnableCache(int64(h.CacheMBPerNode)<<20*int64(h.Nodes), h.CacheFrac); err != nil {
					return benchfmt.Cell{}, err
				}
			} else {
				if err := simExec.EnableCachePolicy(int64(h.CacheMBPerNode)<<20, h.CacheFrac, h.CachePolicy); err != nil {
					return benchfmt.Cell{}, err
				}
				wireScanHints(sched, simExec.HandleScanHint)
			}
		}
		if h.FaultRate > 0 {
			if err := simExec.SetFaultModel(sim.FaultModel{
				Seed:          h.FaultSeed,
				BlockFailRate: h.FaultRate,
				MaxAttempts:   4,
				RetrySec:      5,
			}); err != nil {
				return benchfmt.Cell{}, err
			}
		}
		exec = simExec
	case benchfmt.EngineReal:
		if key.Cache {
			if _, err := store.EnableCachePolicy(int64(h.CacheMBPerNode)<<20, cellPolicy(h)); err != nil {
				return benchfmt.Cell{}, err
			}
			if h.CachePolicy != "" {
				wireScanHints(sched, store.HandleScanHint)
			}
		}
		engine := mapreduce.NewEngine(mapreduce.MustCluster(store, h.SlotsPerNode))
		if h.FaultRate > 0 {
			// Real injected read faults, bounded below the retry budget
			// so recovery is guaranteed and outputs stay exact.
			inj, err := faults.New(faults.Config{
				Seed:                h.FaultSeed,
				ReadFailRate:        h.FaultRate,
				MaxInjectedPerBlock: 2,
			})
			if err != nil {
				return benchfmt.Cell{}, err
			}
			store.SetReadFault(inj.FailRead)
			if err := engine.SetRetryPolicy(mapreduce.RetryPolicy{MaxAttempts: 4}); err != nil {
				return benchfmt.Cell{}, err
			}
		}
		specs, err := wf.EngineSpecs()
		if err != nil {
			return benchfmt.Cell{}, err
		}
		engineExec = driver.NewEngineExecutor(engine, specs)
		// The timer sibling prices the same rounds the engine executes,
		// over the same store, so engine cells get the sim's
		// deterministic virtual timings (fault pricing excluded: the
		// engine already recovers its real injected faults).
		exec = &pricedExec{
			inner: engineExec,
			timer: sim.NewExecutor(sim.NewCluster(h.Nodes, h.SlotsPerNode), store, model),
		}
	default:
		return benchfmt.Cell{}, fmt.Errorf("unknown engine %q", key.Engine)
	}

	var res *driver.Result
	if hasDAG {
		// DAG cells run under a pipeline coordinator: roots arrive like
		// a trace; a finished producer's output is materialized into the
		// cell's store, its segment plan registered with the scheduler,
		// and its dependents released into the same circular pass.
		mat := cellMaterializer(wf, key, store, sched, engineExec, model, refBlocks)
		stages := make([]pipeline.Stage, len(wf.Jobs))
		for i := range wf.Jobs {
			stages[i] = pipeline.Stage{
				Job:       wf.Jobs[i].Meta(),
				At:        vclock.Time(wf.Jobs[i].At),
				DependsOn: wf.Jobs[i].DependsOn,
			}
		}
		coord, cerr := pipeline.NewCoordinator(stages, mat)
		if cerr != nil {
			return benchfmt.Cell{}, cerr
		}
		res, err = runtime.Run(sched, exec, coord, runtime.Options{Pipeline: pipe})
		if err != nil {
			return benchfmt.Cell{}, err
		}
		if cerr := coord.Err(); cerr != nil {
			return benchfmt.Cell{}, cerr
		}
		if left := coord.Unfinished(); len(left) > 0 {
			return benchfmt.Cell{}, fmt.Errorf("DAG stages %v never became ready", left)
		}
		if failed := coord.Failed(); len(failed) > 0 {
			return benchfmt.Cell{}, fmt.Errorf("DAG stages %v cascade-failed", failed)
		}
	} else {
		res, err = driver.RunOpts(sched, exec, arrivals, driver.Options{Pipeline: pipe})
		if err != nil {
			return benchfmt.Cell{}, err
		}
	}
	sum, err := res.Metrics.Summarize(key.String())
	if err != nil {
		return benchfmt.Cell{}, err
	}
	rows, err := res.Metrics.JobTable()
	if err != nil {
		return benchfmt.Cell{}, err
	}
	cell := benchfmt.Cell{
		Key:           key,
		TET:           float64(sum.TET),
		ART:           float64(sum.ART),
		P95:           float64(sum.P95),
		Rounds:        res.Rounds,
		CacheHitRatio: res.Metrics.CacheStats().HitRatio(),
		FaultRetries:  res.Metrics.FaultStats().Retries,
		OutputDigest:  refDigest,
		Jobs:          make([]benchfmt.JobTiming, len(rows)),
	}
	for i, row := range rows {
		cell.Jobs[i] = benchfmt.JobTiming{
			ID:          int(row.ID),
			SubmittedAt: float64(row.SubmittedAt),
			StartedAt:   float64(row.StartedAt),
			CompletedAt: float64(row.CompletedAt),
			Response:    float64(row.Response),
		}
	}
	if engineExec != nil {
		// Engine cells earn their digest from the outputs they actually
		// produced; a scheduler that corrupted results would disagree
		// with the sim cells' reference digest and fail consensus.
		cell.OutputDigest = digestResults(engineExec.Results())
	}
	return cell, nil
}

// cellMaterializer builds the pipeline.Materializer for one DAG cell.
// Engine cells write the producer's real reduce output into the store
// via mapreduce.StoreResult (uniform padded blocks); sim cells, which
// execute nothing, register priced metadata with the block count the
// solo reference measured — so both cells see a derived file of
// identical geometry and every scan of it prices identically. The
// returned delay is the cost model's materialization charge, deferring
// the dependents' release.
func cellMaterializer(
	wf *workload.File,
	key benchfmt.CellKey,
	store *dfs.Store,
	sched scheduler.Scheduler,
	engineExec *driver.EngineExecutor,
	model sim.CostModel,
	refBlocks map[scheduler.JobID]int,
) pipeline.Materializer {
	consumers := derivedConsumers(wf)
	return func(id scheduler.JobID, at vclock.Time) (vclock.Duration, error) {
		n := consumers[id]
		if n == 0 {
			return 0, nil // dependents exist but none read the output (pure ordering)
		}
		name := workload.DerivedFileName(id)
		blockBytes, segBlocks, err := derivedGeometry(wf, id)
		if err != nil {
			return 0, err
		}
		var file *dfs.File
		if engineExec != nil {
			res, ok := engineExec.Results()[id]
			if !ok {
				return 0, fmt.Errorf("engine has no result for finished job %d", id)
			}
			file, err = mapreduce.StoreResult(store, name, blockBytes, res)
			if err != nil {
				return 0, err
			}
			if want, ok := refBlocks[id]; ok && file.NumBlocks != want {
				return 0, fmt.Errorf("derived file %q is %d blocks, solo reference wrote %d", name, file.NumBlocks, want)
			}
		} else {
			want, ok := refBlocks[id]
			if !ok {
				return 0, fmt.Errorf("no reference block count for job %d's output", id)
			}
			file, err = store.AddMetaFile(name, want, blockBytes)
			if err != nil {
				return 0, err
			}
		}
		plan, err := dfs.PlanSegments(file, segBlocks)
		if err != nil {
			return 0, err
		}
		reg, ok := sched.(scheduler.PlanRegistrar)
		if !ok {
			return 0, fmt.Errorf("scheduler %q cannot register files mid-run", key.Scheduler)
		}
		if err := reg.AddPlan(plan, n); err != nil {
			return 0, err
		}
		return model.MaterializeDelay(int64(file.NumBlocks) * blockBytes), nil
	}
}

// cellPolicy resolves the header's eviction policy; v1 files (no
// cachePolicy field) get the LRU the old schema implied.
func cellPolicy(h *workload.FileHeader) string {
	if h.CachePolicy == "" {
		return dfs.PolicyLRU
	}
	return h.CachePolicy
}

// wireScanHints connects the scheduler's circular-cursor hints to a
// cache. Only the S^3 family emits hints; for the other schemes the
// cache simply runs unhinted (lru/2q need none, and cursor degrades to
// plain LRU order).
func wireScanHints(sched scheduler.Scheduler, h core.ScanHinter) {
	if s, ok := sched.(interface{ SetScanHinter(core.ScanHinter) }); ok {
		s.SetScanHinter(h)
	}
}

// soloReference runs every job alone, each on a fresh uncached
// fault-free store, and digests the outputs — the ground truth any
// shared/pipelined/cached execution must reproduce. Jobs run in
// dependency order: a DAG stage's derived input is pre-materialized
// from its producer's solo output before the stage runs, and each
// derived file's block count is recorded — the geometry sim cells
// price materialized stage outputs under.
func soloReference(wf *workload.File) (string, map[scheduler.JobID]int, error) {
	h := &wf.Header
	order, err := topoOrder(wf)
	if err != nil {
		return "", nil, err
	}
	results := make(map[scheduler.JobID]*mapreduce.Result, len(wf.Jobs))
	refBlocks := make(map[scheduler.JobID]int)
	for _, j := range order {
		store, err := dfs.NewStore(h.Nodes, h.Replicas)
		if err != nil {
			return "", nil, err
		}
		for i := range wf.Files {
			if _, err := wf.Files[i].AddTo(store); err != nil {
				return "", nil, err
			}
		}
		if producer, ok := wf.DerivedProducer(j.File); ok {
			res, done := results[producer]
			if !done {
				return "", nil, fmt.Errorf("job %d runs before its producer %d", j.ID, producer)
			}
			blockBytes, _, err := derivedGeometry(wf, producer)
			if err != nil {
				return "", nil, err
			}
			file, err := mapreduce.StoreResult(store, j.File, blockBytes, res)
			if err != nil {
				return "", nil, fmt.Errorf("materializing %q for job %d: %w", j.File, j.ID, err)
			}
			refBlocks[producer] = file.NumBlocks
		}
		content, ok := wf.ContentOf(j.File)
		if !ok {
			return "", nil, fmt.Errorf("job %d reads unknown file %q", j.ID, j.File)
		}
		spec, err := j.EngineSpec(content)
		if err != nil {
			return "", nil, err
		}
		res, err := mapreduce.NewEngine(mapreduce.MustCluster(store, h.SlotsPerNode)).RunJob(spec)
		if err != nil {
			return "", nil, fmt.Errorf("job %d: %w", j.ID, err)
		}
		results[j.ID] = res
	}
	return digestResults(results), refBlocks, nil
}

// topoOrder returns the jobs in dependency (Kahn) order, stable by id
// among ready jobs. Validate guarantees acyclicity for parsed files;
// the error path covers hand-built ones.
func topoOrder(wf *workload.File) ([]*workload.FileJob, error) {
	indeg := make(map[scheduler.JobID]int, len(wf.Jobs))
	byID := make(map[scheduler.JobID]*workload.FileJob, len(wf.Jobs))
	dependents := make(map[scheduler.JobID][]scheduler.JobID)
	for i := range wf.Jobs {
		j := &wf.Jobs[i]
		byID[j.ID] = j
		indeg[j.ID] = len(j.DependsOn)
		for _, dep := range j.DependsOn {
			dependents[dep] = append(dependents[dep], j.ID)
		}
	}
	ready := make([]scheduler.JobID, 0, len(wf.Jobs))
	for id, n := range indeg {
		if n == 0 {
			ready = append(ready, id)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	out := make([]*workload.FileJob, 0, len(wf.Jobs))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, byID[id])
		for _, cid := range dependents[id] {
			indeg[cid]--
			if indeg[cid] == 0 {
				ready = append(ready, cid)
			}
		}
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	}
	if len(out) != len(wf.Jobs) {
		return nil, fmt.Errorf("dependency cycle among jobs")
	}
	return out, nil
}

// digestResults fingerprints job outputs: sha256 over jobs in id order,
// each job's sorted key/value records framed unambiguously.
func digestResults(results map[scheduler.JobID]*mapreduce.Result) string {
	ids := make([]scheduler.JobID, 0, len(results))
	for id := range results {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	hsh := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(hsh, "job %d %d\n", id, len(results[id].Output))
		for _, kv := range results[id].Output {
			fmt.Fprintf(hsh, "%d %d\n%s%s", len(kv.Key), len(kv.Value), kv.Key, kv.Value)
		}
	}
	return hex.EncodeToString(hsh.Sum(nil))
}

// pricedExec is the engine-cell executor: the inner EngineExecutor
// does the real work (scans, shuffles, reduces, caching, fault
// recovery) while the timer — a sim executor over the same store —
// supplies the round durations. The wall clock never reaches the
// scheduler, so engine runs are as deterministic as sim runs, and a
// sim cell with the same scheduler marches through the identical round
// sequence.
type pricedExec struct {
	inner *driver.EngineExecutor
	timer *sim.Executor
}

var (
	_ runtime.StageExecutor    = (*pricedExec)(nil)
	_ runtime.FailureReporter  = (*pricedExec)(nil)
	_ runtime.FaultStatsSource = (*pricedExec)(nil)
	_ runtime.CacheStatsSource = (*pricedExec)(nil)
)

// ExecRound implements runtime.Executor.
func (p *pricedExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	mapDur, stage, err := p.ExecMapStage(r)
	if err != nil {
		return 0, err
	}
	redDur, err := stage()
	if err != nil {
		return 0, err
	}
	return mapDur + redDur, nil
}

// ExecMapStage implements runtime.StageExecutor: the inner executor's
// map stage runs for real, then the timer prices the same round; the
// returned reduce stage chains the inner reduce (for outputs) with the
// timer's (for duration).
func (p *pricedExec) ExecMapStage(r scheduler.Round) (vclock.Duration, runtime.ReduceStage, error) {
	_, innerStage, err := p.inner.ExecMapStage(r)
	if err != nil {
		var lost *scheduler.RoundLostError
		if errors.As(err, &lost) {
			// Re-price the lost round's elapsed time deterministically;
			// the requeue path must not observe wall time either.
			if mapDur, _, perr := p.timer.ExecMapStage(r); perr == nil {
				lost.Elapsed = mapDur
			}
		}
		return 0, nil, err
	}
	mapDur, timerStage, err := p.timer.ExecMapStage(r)
	if err != nil {
		return 0, nil, err
	}
	stage := func() (vclock.Duration, error) {
		if _, err := innerStage(); err != nil {
			return 0, err
		}
		return timerStage()
	}
	return mapDur, stage, nil
}

// TakeJobFailures implements runtime.FailureReporter.
func (p *pricedExec) TakeJobFailures() []scheduler.JobFailure { return p.inner.TakeJobFailures() }

// FaultStats implements runtime.FaultStatsSource.
func (p *pricedExec) FaultStats() metrics.FaultStats { return p.inner.FaultStats() }

// CacheStats implements runtime.CacheStatsSource.
func (p *pricedExec) CacheStats() metrics.CacheStats { return p.inner.CacheStats() }
