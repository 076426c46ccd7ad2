package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// Per-layer tracing. Every wrapper here sits at a public boundary of
// one layer — the workload's Mapper/Reducer, internal/driver's
// StageExecutor, the core Scheduler, the runtime's ArrivalSource and
// the dfs block-source func — and charges the time spent inside the
// call to that layer. Wrappers forward every optional interface the
// callee type-asserts, so a traced run executes the same code paths
// (and the same round sequence) as an untraced one.

// counter is a concurrency-safe accumulator of a call count and the
// summed wall time spent inside the calls (thread-seconds when calls
// run in parallel).
type counter struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (c *counter) add(d time.Duration) {
	c.calls.Add(1)
	c.nanos.Add(int64(d))
}

func (c *counter) seconds() float64 { return float64(c.nanos.Load()) / 1e9 }

// interval is one [start, end) stretch of wall time.
type interval struct{ start, end time.Time }

// layerTrace collects one traced repetition's per-layer spans and
// counts. The zero value is ready to use.
type layerTrace struct {
	mapFn, combineFn, reduceFn counter
	recordsOut                 atomic.Int64
	source                     counter // dfs block-source func
	sched                      counter // every call into the scheduler
	arrivals                   counter // every call into the arrival source
	rounds, batchJobs          atomic.Int64

	mu sync.Mutex
	// mapStages are the engine goroutine's ExecMapStage spans;
	// reduceStages the reduce closures' spans on the runtime's reduce
	// workers; queueWait sums each reduce's wait between its map stage
	// returning and a worker starting it.
	mapStages, reduceStages []interval
	queueWait               time.Duration
}

func (t *layerTrace) mapStage(iv interval) {
	t.mu.Lock()
	t.mapStages = append(t.mapStages, iv)
	t.mu.Unlock()
}

func (t *layerTrace) reduceStage(iv interval, wait time.Duration) {
	t.mu.Lock()
	t.reduceStages = append(t.reduceStages, iv)
	t.queueWait += wait
	t.mu.Unlock()
}

// tracedMapper times Map calls and counts the records they emit.
type tracedMapper struct {
	inner mapreduce.Mapper
	t     *layerTrace
}

func (m tracedMapper) Map(block dfs.BlockID, data []byte, emit mapreduce.Emit) error {
	var n int64
	begin := time.Now()
	err := m.inner.Map(block, data, func(kv mapreduce.KV) {
		n++
		emit(kv)
	})
	m.t.mapFn.add(time.Since(begin))
	m.t.recordsOut.Add(n)
	return err
}

// countingMapper is tracedMapper for mappers that also decode record
// counts (mapreduce.InputRecordCounter); the decode is charged to the
// map function, like the engine charges it to the map task.
type countingMapper struct{ tracedMapper }

func (m countingMapper) CountInputRecords(data []byte) int64 {
	begin := time.Now()
	n := m.inner.(mapreduce.InputRecordCounter).CountInputRecords(data)
	m.t.mapFn.add(time.Since(begin))
	return n
}

// traceMapper wraps inner, keeping its InputRecordCounter capability
// exactly: the engine counts input records only for mappers that
// implement it.
func traceMapper(inner mapreduce.Mapper, t *layerTrace) mapreduce.Mapper {
	tm := tracedMapper{inner: inner, t: t}
	if _, ok := inner.(mapreduce.InputRecordCounter); ok {
		return countingMapper{tm}
	}
	return tm
}

// tracedReducer times Reduce calls (one per key) into c.
type tracedReducer struct {
	inner mapreduce.Reducer
	c     *counter
}

func (r tracedReducer) Reduce(key string, values []string, emit mapreduce.Emit) error {
	begin := time.Now()
	err := r.inner.Reduce(key, values, emit)
	r.c.add(time.Since(begin))
	return err
}

// traceSpec wraps a job's map, combine and reduce functions.
func traceSpec(spec mapreduce.JobSpec, t *layerTrace) mapreduce.JobSpec {
	spec.Mapper = traceMapper(spec.Mapper, t)
	if spec.Combiner != nil {
		spec.Combiner = tracedReducer{inner: spec.Combiner, c: &t.combineFn}
	}
	if spec.Reducer != nil {
		spec.Reducer = tracedReducer{inner: spec.Reducer, c: &t.reduceFn}
	}
	return spec
}

// traceSource wraps a dfs block-source func.
func traceSource(gen func(int) ([]byte, error), t *layerTrace) func(int) ([]byte, error) {
	return func(i int) ([]byte, error) {
		begin := time.Now()
		data, err := gen(i)
		t.source.add(time.Since(begin))
		return data, err
	}
}

// engineExec is the executor surface the runtime type-asserts on the
// EngineExecutor of internal/driver; the traced wrapper keeps all of it.
type engineExec interface {
	runtime.StageExecutor
	runtime.FailureReporter
	runtime.FaultStatsSource
	runtime.CacheStatsSource
}

// tracedExec times the engine's map stages on the runtime's goroutine
// and its reduce stages on the reduce workers.
type tracedExec struct {
	inner engineExec
	t     *layerTrace
}

var _ engineExec = (*tracedExec)(nil)

func (e *tracedExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	mapDur, stage, err := e.ExecMapStage(r)
	if err != nil {
		return 0, err
	}
	redDur, err := stage()
	return mapDur + redDur, err
}

func (e *tracedExec) ExecMapStage(r scheduler.Round) (vclock.Duration, runtime.ReduceStage, error) {
	begin := time.Now()
	d, stage, err := e.inner.ExecMapStage(r)
	end := time.Now()
	e.t.mapStage(interval{begin, end})
	if err != nil || stage == nil {
		return d, stage, err
	}
	return d, func() (vclock.Duration, error) {
		start := time.Now()
		rd, rerr := stage()
		e.t.reduceStage(interval{start, time.Now()}, start.Sub(end))
		return rd, rerr
	}, nil
}

func (e *tracedExec) TakeJobFailures() []scheduler.JobFailure { return e.inner.TakeJobFailures() }
func (e *tracedExec) FaultStats() metrics.FaultStats          { return e.inner.FaultStats() }
func (e *tracedExec) CacheStats() metrics.CacheStats          { return e.inner.CacheStats() }

// stagedScheduler is the scheduler surface the pipelined runtime
// needs; core.S3 provides it.
type stagedScheduler interface {
	scheduler.Scheduler
	scheduler.StageAware
}

// tracedScheduler charges every scheduling decision to the core layer.
type tracedScheduler struct {
	inner stagedScheduler
	t     *layerTrace
}

var _ stagedScheduler = (*tracedScheduler)(nil)

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Submit(job scheduler.JobMeta, at vclock.Time) error {
	begin := time.Now()
	err := s.inner.Submit(job, at)
	s.t.sched.add(time.Since(begin))
	return err
}

func (s *tracedScheduler) NextRound(now vclock.Time) (scheduler.Round, bool) {
	begin := time.Now()
	r, ok := s.inner.NextRound(now)
	s.t.sched.add(time.Since(begin))
	if ok {
		s.t.rounds.Add(1)
		s.t.batchJobs.Add(int64(len(r.Jobs)))
	}
	return r, ok
}

func (s *tracedScheduler) MapDone(r scheduler.Round, now vclock.Time) {
	begin := time.Now()
	s.inner.MapDone(r, now)
	s.t.sched.add(time.Since(begin))
}

func (s *tracedScheduler) RoundDone(r scheduler.Round, now vclock.Time) []scheduler.JobID {
	begin := time.Now()
	done := s.inner.RoundDone(r, now)
	s.t.sched.add(time.Since(begin))
	return done
}

func (s *tracedScheduler) PendingJobs() int {
	begin := time.Now()
	n := s.inner.PendingJobs()
	s.t.sched.add(time.Since(begin))
	return n
}

// stampSource is the benchmark's ArrivalSource wrapper, present in
// traced and untraced runs alike: it stamps each job's wall-clock
// submit time as the runtime pops it. With a trace it also charges
// the calls to the runtime's arrival layer.
type stampSource struct {
	inner runtime.ArrivalSource
	t     *layerTrace // nil when untraced

	mu        sync.Mutex
	submitted map[scheduler.JobID]time.Time
}

func newStampSource(inner runtime.ArrivalSource, t *layerTrace) *stampSource {
	return &stampSource{inner: inner, t: t, submitted: make(map[scheduler.JobID]time.Time)}
}

func (s *stampSource) timed(begin time.Time) {
	if s.t != nil {
		s.t.arrivals.add(time.Since(begin))
	}
}

func (s *stampSource) Pop(now vclock.Time) []runtime.Arrival {
	begin := time.Now()
	out := s.inner.Pop(now)
	if len(out) > 0 {
		s.mu.Lock()
		for _, a := range out {
			s.submitted[a.Job.ID] = begin
		}
		s.mu.Unlock()
	}
	s.timed(begin)
	return out
}

func (s *stampSource) Peek() (vclock.Time, bool) {
	begin := time.Now()
	at, ok := s.inner.Peek()
	s.timed(begin)
	return at, ok
}

func (s *stampSource) Pending() int {
	begin := time.Now()
	n := s.inner.Pending()
	s.timed(begin)
	return n
}

func (s *stampSource) Wait() bool {
	begin := time.Now()
	ok := s.inner.Wait()
	s.timed(begin)
	return ok
}

// covered returns the total length of the union of ivs clipped to
// [lo, hi], minus any part also covered by the union of holes.
func covered(ivs, holes []interval, lo, hi time.Time) time.Duration {
	type edge struct {
		at    time.Time
		delta int
		hole  bool
	}
	var edges []edge
	add := func(list []interval, hole bool) {
		for _, iv := range list {
			s, e := iv.start, iv.end
			if s.Before(lo) {
				s = lo
			}
			if e.After(hi) {
				e = hi
			}
			if !e.After(s) {
				continue
			}
			edges = append(edges, edge{s, 1, hole}, edge{e, -1, hole})
		}
	}
	add(ivs, false)
	add(holes, true)
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	var total time.Duration
	depth, holeDepth := 0, 0
	var last time.Time
	for _, e := range edges {
		if depth > 0 && holeDepth == 0 {
			total += e.at.Sub(last)
		}
		last = e.at
		if e.hole {
			holeDepth += e.delta
		} else {
			depth += e.delta
		}
	}
	return total
}
