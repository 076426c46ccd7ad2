package scheduler

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// FIFO reproduces Hadoop's default scheduler (paper §II-B): jobs run
// one after another in submission order, each scanning the whole file
// from the beginning for itself. There is no sharing: a job arriving
// while another runs waits for every job ahead of it.
//
// Execution is still expressed in per-segment rounds so that all
// schemes pay identical per-round overheads in the cost model — FIFO
// is penalized only by its lack of sharing, not by bookkeeping
// differences.
// One queue serves any number of files (AddPlan), each job scanning
// its own.
type FIFO struct {
	plans map[string]*dfs.SegmentPlan // by file name
	log   *trace.Log
	queue []JobMeta // waiting jobs, head first
	cur   *fifoRun  // job currently executing, nil when idle
	seen  map[JobID]bool
	// inFlight guards the serial-round protocol.
	inFlight bool
	pending  int
	// pendingDone queues completion lists for pipelined rounds whose
	// scan finished but whose reduce is still draining (see StageAware).
	pendingDone [][]JobID
}

var (
	_ Scheduler     = (*FIFO)(nil)
	_ StageAware    = (*FIFO)(nil)
	_ Recoverable   = (*FIFO)(nil)
	_ PlanRegistrar = (*FIFO)(nil)
)

type fifoRun struct {
	job  JobMeta
	plan *dfs.SegmentPlan // the job's file
	next int              // next segment index to scan (linear 0..k-1)
}

// NewFIFO returns a FIFO scheduler over the segment plan; AddPlan
// registers more files. log may be nil.
func NewFIFO(plan *dfs.SegmentPlan, log *trace.Log) *FIFO {
	plans := map[string]*dfs.SegmentPlan{plan.File().Name: plan}
	return &FIFO{plans: plans, log: log, seen: make(map[JobID]bool)}
}

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// AddPlan implements PlanRegistrar. FIFO has no per-file state, so
// expectJobs is ignored.
func (f *FIFO) AddPlan(p *dfs.SegmentPlan, _ int) error {
	name := p.File().Name
	if _, dup := f.plans[name]; dup {
		return fmt.Errorf("scheduler: FIFO already has a plan for file %q", name)
	}
	f.plans[name] = p
	return nil
}

// Submit implements Scheduler.
func (f *FIFO) Submit(job JobMeta, at vclock.Time) error {
	if f.seen[job.ID] {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, job.ID)
	}
	if _, ok := f.plans[job.File]; !ok {
		return fmt.Errorf("%w: job %d reads %q, no such file registered", ErrWrongFile, job.ID, job.File)
	}
	f.seen[job.ID] = true
	f.pending++
	f.queue = append(f.queue, job.normalized())
	f.log.Addf(at, trace.JobSubmitted, int(job.ID), -1, "fifo queue depth %d", len(f.queue))
	return nil
}

// NextRound implements Scheduler.
func (f *FIFO) NextRound(now vclock.Time) (Round, bool) {
	if f.inFlight {
		panic("scheduler: FIFO.NextRound called with a round in flight")
	}
	if f.cur == nil {
		if len(f.queue) == 0 {
			return Round{}, false
		}
		job := f.queue[0]
		f.cur = &fifoRun{job: job, plan: f.plans[job.File]}
		f.queue = f.queue[1:]
	}
	seg := f.cur.next
	r := Round{
		Segment: seg,
		Blocks:  f.cur.plan.Blocks(seg),
		Jobs:    []JobMeta{f.cur.job},
	}
	if seg == 0 {
		r.FreshJobs = 1 // the job is submitted once, at its first wave
	}
	if seg == f.cur.plan.NumSegments()-1 {
		r.Completes = []JobID{f.cur.job.ID}
	}
	f.inFlight = true
	f.log.Addf(now, trace.RoundLaunched, int(f.cur.job.ID), seg, "fifo")
	return r, true
}

// MapDone implements StageAware: the scan of the round finished, so
// the job's segment progress advances now and the next round may form
// while the reduce stage drains; RoundDone later reports the queued
// completion list.
func (f *FIFO) MapDone(r Round, now vclock.Time) {
	if !f.inFlight {
		panic("scheduler: FIFO.MapDone without a round in flight")
	}
	f.inFlight = false
	f.log.Addf(now, trace.MapStageFinished, int(f.cur.job.ID), r.Segment, "fifo")
	f.pendingDone = append(f.pendingDone, f.retireScan(now))
}

// RoundDone implements Scheduler.
func (f *FIFO) RoundDone(r Round, now vclock.Time) []JobID {
	if len(f.pendingDone) > 0 {
		done := f.pendingDone[0]
		f.pendingDone = f.pendingDone[1:]
		f.log.Addf(now, trace.RoundFinished, int(r.Jobs[0].ID), r.Segment, "fifo")
		return done
	}
	if !f.inFlight {
		panic("scheduler: FIFO.RoundDone without a round in flight")
	}
	f.inFlight = false
	f.log.Addf(now, trace.RoundFinished, int(f.cur.job.ID), r.Segment, "fifo")
	return f.retireScan(now)
}

// retireScan advances the running job past its just-scanned segment,
// retiring it when that was the last one.
func (f *FIFO) retireScan(now vclock.Time) []JobID {
	f.cur.next++
	if f.cur.next == f.cur.plan.NumSegments() {
		done := f.cur.job.ID
		f.cur = nil
		f.pending--
		f.log.Addf(now, trace.JobCompleted, int(done), -1, "fifo")
		return []JobID{done}
	}
	return nil
}

// RequeueRound implements Recoverable: FIFO has no sub-job structure,
// so a lost round is simply resubmitted — the running job's segment
// progress is unchanged and the next NextRound re-forms the same
// round.
func (f *FIFO) RequeueRound(r Round, now vclock.Time) {
	if !f.inFlight {
		panic("scheduler: FIFO.RequeueRound without a round in flight")
	}
	f.inFlight = false
	f.log.Addf(now, trace.SubJobRequeued, int(f.cur.job.ID), r.Segment, "fifo round lost; resubmitting")
}

// AbortJobs implements Recoverable: failed jobs leave the waiting
// queue, and a failed running job is dropped mid-file.
func (f *FIFO) AbortJobs(ids []JobID, now vclock.Time) {
	drop := make(map[JobID]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	queue := f.queue[:0]
	for _, j := range f.queue {
		if drop[j.ID] {
			f.pending--
			f.log.Addf(now, trace.JobAborted, int(j.ID), -1, "fifo (queued)")
			continue
		}
		queue = append(queue, j)
	}
	f.queue = queue
	if f.cur != nil && drop[f.cur.job.ID] {
		f.log.Addf(now, trace.JobAborted, int(f.cur.job.ID), f.cur.next, "fifo (running)")
		f.cur = nil
		f.pending--
	}
}

// PendingJobs implements Scheduler.
func (f *FIFO) PendingJobs() int { return f.pending }
