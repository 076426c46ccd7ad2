package runtime

import (
	"errors"
	"fmt"

	"s3sched/internal/metrics"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// stagePolicy is the pluggable half of the engine: how a formed round
// turns into executed work and retired completions. The engine owns
// everything policy-independent — arrival admission, requeue
// accounting, failure draining, stats folding, idle timing — so those
// semantics are shared by construction.
type stagePolicy interface {
	// start spins up any background workers the policy needs.
	start()
	// launch runs round r from launch time now, advancing the engine
	// clock by the synchronous stage work. It either retires the round
	// inline (serial) or queues its reduce stage (pipelined). A
	// *scheduler.RoundLostError return is requeued by the engine; any
	// other error aborts the run.
	launch(r scheduler.Round, now vclock.Time) error
	// poll opportunistically retires rounds whose asynchronous work has
	// finished within virtual time now. No-op for the serial policy.
	poll(now vclock.Time) error
	// idle handles an idle scheduler given the earliest known external
	// event (target, when have). It reports handled=true when it made
	// progress (advanced the clock or retired a round) and the loop
	// should re-poll the scheduler.
	idle(now vclock.Time, target vclock.Time, have bool) (handled bool, err error)
	// drain blocks until every in-flight asynchronous stage has
	// reported, so error returns never leak goroutines mid-stage.
	drain()
	// shutdown releases the policy's background workers.
	shutdown()
}

// engine is one run of the unified round loop.
type engine struct {
	sched scheduler.Scheduler
	exec  Executor
	src   ArrivalSource
	// trk is src's lifecycle-callback side, when it has one.
	trk JobTracker
	// mem is exec's dynamic-membership side, when it has one; its
	// deltas are drained every loop iteration.
	mem         MembershipSource
	hooks       Hooks
	maxRequeues int
	pol         stagePolicy

	clock *vclock.Virtual
	coll  *metrics.Collector
	tele  *telemetry
	res   *Result
	// failed persists across rounds — under pipelining a failure
	// drained at an earlier round's retire must not be double-counted
	// when a later round reports the same job completed.
	failed map[scheduler.JobID]bool
	// requeues counts consecutive requeues of the current round.
	requeues int
	// commits is the write-ahead commit sink, nil when not journaling.
	commits CommitLog
	// stop requests a graceful exit at the next round boundary.
	stop <-chan struct{}
	// restored are journal-recovered jobs to seed into the collector.
	restored []RestoredJob
}

func newEngine(sched scheduler.Scheduler, exec Executor, src ArrivalSource, opts Options) *engine {
	maxRequeues := opts.MaxRequeues
	if maxRequeues <= 0 {
		maxRequeues = DefaultMaxRequeues
	}
	e := &engine{
		sched:       sched,
		exec:        exec,
		src:         src,
		hooks:       opts.Hooks,
		maxRequeues: maxRequeues,
		clock:       vclock.NewVirtual(),
		coll:        metrics.NewCollector(),
		tele:        newTelemetry(opts),
		failed:      make(map[scheduler.JobID]bool),
		commits:     opts.Commits,
		stop:        opts.Stop,
		restored:    opts.Restored,
		requeues:    opts.InitialRequeues,
	}
	if trk, ok := src.(JobTracker); ok {
		e.trk = trk
	}
	if mem, ok := exec.(MembershipSource); ok {
		e.mem = mem
	}
	e.res = &Result{Metrics: e.coll}
	e.pol = &serialPolicy{e: e}
	if WillPipeline(sched, exec, opts) {
		e.pol = newPipelinedPolicy(e, sched.(scheduler.StageAware), exec.(StageExecutor), opts)
	}
	return e
}

// WillPipeline reports whether a run with this scheduler, executor and
// options would use the stage-pipelined policy: pipelining must be
// requested AND both sides must be stage-capable. A caller can use it
// to tell what will actually engage from what was asked — MRShare, for
// example, is never stage-aware, so a "pipelined" MRShare run is
// really a serial one.
func WillPipeline(sched scheduler.Scheduler, exec Executor, opts Options) bool {
	if !opts.Pipeline {
		return false
	}
	_, okExec := exec.(StageExecutor)
	_, okSched := sched.(scheduler.StageAware)
	return okExec && okSched
}

// run is the state machine: admit due arrivals → form round → execute
// (policy) → drain failures → requeue-or-retire → fold stats.
func (e *engine) run() (*Result, error) {
	if e.src == nil {
		return nil, fmt.Errorf("runtime: nil arrival source")
	}
	e.pol.start()
	defer e.pol.shutdown()
	e.tele.beginRun(e.sched.Name(), e.clock.Now())
	// Journal-recovered jobs are already in the scheduler; give each a
	// collector entry so the submit→start→complete lifecycle holds.
	for _, rj := range e.restored {
		e.coll.Submit(rj.ID, rj.At)
		e.tele.jobSubmitted()
	}
	for {
		if e.stopRequested() {
			break
		}
		now := e.clock.Now()
		e.drainMembership(now)
		if err := e.deliverDue(now); err != nil {
			e.pol.drain()
			return nil, err
		}
		if err := e.pol.poll(now); err != nil {
			e.pol.drain()
			return nil, err
		}
		r, ok := e.sched.NextRound(now)
		if !ok {
			// Idle scheduler: the next event is whichever comes first —
			// the next arrival, the scheduler's own timer, or whatever
			// asynchronous work the policy still has draining.
			target, have := e.nextEvent(now)
			handled, err := e.pol.idle(now, target, have)
			if err != nil {
				e.pol.drain()
				return nil, err
			}
			if handled {
				continue
			}
			if have {
				if target < now {
					target = now
				}
				e.clock.AdvanceTo(target)
				continue
			}
			// No work, no timers, nothing draining. A live source may
			// still produce arrivals: park until it does or closes.
			if e.src.Wait() {
				continue
			}
			if e.stopRequested() {
				break
			}
			if e.sched.PendingJobs() > 0 {
				if st, isSt := e.sched.(Stalled); isSt && st.Stalled() {
					return nil, fmt.Errorf("runtime: scheduler %q stalled with %d pending job(s): %v",
						e.sched.Name(), e.sched.PendingJobs(), e.coll.Incomplete())
				}
				return nil, fmt.Errorf("runtime: scheduler %q idle but %d job(s) incomplete: %v",
					e.sched.Name(), e.sched.PendingJobs(), e.coll.Incomplete())
			}
			break
		}
		// The launch of a round is each included job's transition
		// from waiting to processing (§III-B decomposition).
		for _, id := range r.JobIDs() {
			if e.coll.Start(id, now) {
				e.tele.jobStarted(e.coll, id)
			}
		}
		if e.hooks.OnRoundStart != nil {
			e.hooks.OnRoundStart(r, now)
		}
		if err := e.pol.launch(r, now); err != nil {
			var lost *scheduler.RoundLostError
			if errors.As(err, &lost) {
				e.requeues++
				if lerr := e.requeueLost(r, lost); lerr != nil {
					e.pol.drain()
					return nil, lerr
				}
				e.tele.roundLost(r)
				// Arrivals during the failed attempt still join the
				// queue; the re-formed round aligns them too.
				continue
			}
			e.pol.drain()
			return nil, err
		}
	}
	e.drainMembership(e.clock.Now())
	e.finishStats()
	e.res.End = e.clock.Now()
	e.res.Requeues = e.requeues
	e.tele.endRun(e.coll, e.res.End, e.res.Rounds)
	return e.res, nil
}

// stopRequested reports whether Options.Stop has fired. The first
// observation drains the policy's asynchronous stages (so no reduce is
// mid-flight when the caller checkpoints) and marks the result
// stopped.
func (e *engine) stopRequested() bool {
	if e.stop == nil {
		return false
	}
	select {
	case <-e.stop:
		if !e.res.Stopped {
			e.pol.drain()
			e.res.Stopped = true
		}
		return true
	default:
		return false
	}
}

// drainMembership pulls the executor's pending membership transitions
// into the telemetry sinks. Cluster churn happens on the wall clock;
// events are stamped with the virtual time at which the run loop
// observed them — the instant the information could first influence a
// scheduling decision.
func (e *engine) drainMembership(now vclock.Time) {
	if e.mem == nil {
		return
	}
	evs := e.mem.TakeMemberEvents()
	if len(evs) == 0 {
		return
	}
	for _, ev := range evs {
		e.tele.memberEvent(now, ev)
	}
	e.tele.workersConnected(e.mem.LiveWorkers())
}

// deliverDue admits every arrival due at now into the scheduler. This
// runs at the top of each loop iteration and — in the serial policy —
// again right after a round's clock advance, so jobs that arrived
// while the round ran join the queue before the round is retired and
// the very next round can include them (S^3 dynamic sub-job
// adjustment, §IV-D2).
func (e *engine) deliverDue(now vclock.Time) error {
	arrivals := e.src.Pop(now)
	for _, a := range arrivals {
		if err := e.sched.Submit(a.Job, a.At); err != nil {
			return err
		}
		e.coll.Submit(a.Job.ID, a.At)
		e.tele.jobSubmitted()
		if e.trk != nil {
			e.trk.JobAdmitted(a.Job.ID, a.At)
			e.tele.jobAdmitted(a.Job.ID, a.At)
		}
	}
	if len(arrivals) > 0 {
		e.tele.admissionDepth(e.src.Pending())
	}
	return nil
}

// nextEvent reports the earliest pending external event: the next
// queued arrival or the scheduler's own timer (window batchers).
func (e *engine) nextEvent(now vclock.Time) (vclock.Time, bool) {
	var target vclock.Time
	have := false
	if at, ok := e.src.Peek(); ok {
		target = at
		have = true
	}
	if w, isWaker := e.sched.(Waker); isWaker {
		if wake, wok := w.NextWake(now); wok && wake > now && (!have || wake < target) {
			target = wake
			have = true
		}
	}
	return target, have
}

// requeueLost processes a round-loss error: advance the clock by the
// time the failed execution consumed, then return the round to a
// Recoverable scheduler. Returns an error when the scheduler cannot
// recover or the consecutive-requeue bound is exhausted. This is the
// single MaxRequeues implementation both stage policies run through.
func (e *engine) requeueLost(r scheduler.Round, lost *scheduler.RoundLostError) error {
	rec, ok := e.sched.(scheduler.Recoverable)
	if !ok {
		return fmt.Errorf("runtime: round over segment %d lost and scheduler %q cannot requeue: %w", r.Segment, e.sched.Name(), lost)
	}
	if e.requeues > e.maxRequeues {
		return fmt.Errorf("runtime: round over segment %d lost %d consecutive times, giving up: %w", r.Segment, e.requeues, lost)
	}
	if lost.Elapsed < 0 {
		return fmt.Errorf("runtime: executor returned negative lost-round elapsed %v", lost.Elapsed)
	}
	e.clock.Advance(lost.Elapsed)
	rec.RequeueRound(r, e.clock.Now())
	e.coll.AddFaultStats(metrics.FaultStats{RequeuedRounds: 1, RequeuedSubJobs: len(r.Jobs)})
	return nil
}

// settleRound records a retired round's completions and drains the
// executor's per-job failure reports: failed jobs are marked failed
// (not completed) and aborted in the scheduler so no future round
// includes them. This is the single FailureReporter drain both stage
// policies run through.
func (e *engine) settleRound(r scheduler.Round, now vclock.Time, completed []scheduler.JobID) error {
	var fresh []scheduler.JobID
	if fr, ok := e.exec.(FailureReporter); ok {
		for _, jf := range fr.TakeJobFailures() {
			if e.failed[jf.ID] {
				continue
			}
			e.failed[jf.ID] = true
			e.coll.Fail(jf.ID, now)
			e.tele.jobFailed()
			if e.trk != nil {
				e.trk.JobFinished(jf.ID, now, true)
			}
			fresh = append(fresh, jf.ID)
		}
	}
	done := make(map[scheduler.JobID]bool, len(completed))
	for _, id := range completed {
		done[id] = true
		if e.failed[id] {
			continue // recorded as failed, and already retired by the scheduler
		}
		e.coll.Complete(id, now)
		e.tele.jobCompleted(e.coll, id)
		if e.trk != nil {
			e.trk.JobFinished(id, now, false)
		}
	}
	var abort []scheduler.JobID
	for _, id := range fresh {
		if !done[id] {
			abort = append(abort, id)
		}
	}
	if len(abort) > 0 {
		rec, ok := e.sched.(scheduler.Recoverable)
		if !ok {
			return fmt.Errorf("runtime: job(s) %v failed and scheduler %q cannot abort them", abort, e.sched.Name())
		}
		rec.AbortJobs(abort, now)
	}
	if e.commits != nil {
		// Round-commit point: the scheduler just retired the round, so
		// its state is consistent and (serial mode) snapshottable. Under
		// pipelining a snapshot may legitimately fail while reduces
		// drain; the journal then records the round without one and
		// recovery falls back to resubmitting pending jobs.
		var snapPtr *scheduler.Snapshot
		if sn, ok := e.sched.(scheduler.Snapshottable); ok {
			if snap, err := sn.StateSnapshot(); err == nil {
				snapPtr = &snap
			}
		}
		e.commits.RoundCommitted(r, now, snapPtr, e.requeues)
		for _, id := range fresh {
			e.commits.JobFailed(id, now)
		}
		for _, id := range completed {
			if !e.failed[id] {
				e.commits.JobDone(id, now)
			}
		}
	}
	if e.hooks.OnRoundDone != nil {
		e.hooks.OnRoundDone(r, now, completed)
	}
	return nil
}

// finishStats folds the executor's fault and cache counters into the
// run's metrics once the loop ends.
func (e *engine) finishStats() {
	if src, ok := e.exec.(FaultStatsSource); ok {
		e.coll.AddFaultStats(src.FaultStats())
	}
	if src, ok := e.exec.(CacheStatsSource); ok {
		e.coll.AddCacheStats(src.CacheStats())
	}
}
