package scheduler

import (
	"fmt"
	"slices"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
)

// PlanRegistrar is the dynamic-file registration surface shared by
// every multi-file scheduler: a derived file's segment plan can join a
// run in progress. expectJobs is how many jobs will read the file;
// batch schedulers use it to size the file's batch, continuous ones
// treat it as advisory.
type PlanRegistrar interface {
	AddPlan(plan *dfs.SegmentPlan, expectJobs int) error
}

// Queue is a per-file queue of Multi. Recovery is forwarded to it.
type Queue interface {
	Scheduler
	Recoverable
}

// Multi serves several files (the paper's JQM handles one, §III-A) from
// one queue per file, one round at a time: the queues are walked from
// the rotation pointer, stable-ordered by descending rank if a rank is
// set, and the first whose NextRound yields a round wins. The pointer
// moves past the winner, so equals are served round-robin.
type Multi[Q Queue] struct {
	name     string
	newQueue func(plan *dfs.SegmentPlan, expectJobs int) (Q, error)
	rank     func(Q) [2]int64

	queues map[string]Q
	files  []string // registration order; the rotation walks it
	next   int      // rotation index to consider first on the next pick
	seen   map[JobID]bool

	inFlight bool
	cur      Q // queue that formed the in-flight round
}

// NewMulti returns a combinator with no files; AddPlan registers them
// through newQueue. rank, when non-nil, scores a queue for the next
// pick; higher scores, compared element by element, go first.
func NewMulti[Q Queue](name string, newQueue func(plan *dfs.SegmentPlan, expectJobs int) (Q, error), rank func(Q) [2]int64) *Multi[Q] {
	return &Multi[Q]{
		name:     name,
		newQueue: newQueue,
		rank:     rank,
		queues:   make(map[string]Q),
		seen:     make(map[JobID]bool),
	}
}

// Name implements Scheduler.
func (m *Multi[Q]) Name() string { return m.name }

// AddPlan implements PlanRegistrar: the file's new queue joins the end
// of the rotation — how a DAG stage's materialized output joins a run
// in progress. It must not be called with a round in flight: the
// runtime invokes it from job-done hooks, which run after RoundDone.
func (m *Multi[Q]) AddPlan(p *dfs.SegmentPlan, expectJobs int) error {
	if m.inFlight {
		return fmt.Errorf("scheduler: %s AddPlan with a round in flight", m.name)
	}
	q, err := m.newQueue(p, expectJobs)
	if err != nil {
		return err
	}
	return m.add(p.File().Name, q)
}

func (m *Multi[Q]) add(file string, q Q) error {
	if _, dup := m.queues[file]; dup {
		return fmt.Errorf("scheduler: %s already has a plan for file %q", m.name, file)
	}
	m.queues[file] = q
	m.files = append(m.files, file)
	return nil
}

// Files returns the registered file names in registration order.
func (m *Multi[Q]) Files() []string { return slices.Clone(m.files) }

// Queue returns file's queue.
func (m *Multi[Q]) Queue(file string) (Q, bool) {
	q, ok := m.queues[file]
	return q, ok
}

// Snapshot captures each queue with take, in registration order, plus
// the rotation pointer.
func (m *Multi[Q]) Snapshot(take func(Q) (QueueSnapshot, error)) (Snapshot, error) {
	snap := Snapshot{Scheme: m.name, Rotation: m.next}
	for _, file := range m.files {
		qs, err := take(m.queues[file])
		if err != nil {
			return Snapshot{}, fmt.Errorf("scheduler: snapshotting queue %q: %w", file, err)
		}
		snap.Queues = append(snap.Queues, qs)
	}
	return snap, nil
}

// Restore loads each snapshot queue into its file's queue with load and
// keeps the restored ids registered, so resubmitting one is a
// duplicate. Registered files absent from the snapshot restore empty
// (they had no active jobs). Only valid before any submission.
func (m *Multi[Q]) Restore(snap Snapshot, load func(Q, QueueSnapshot) error) error {
	if snap.Scheme != m.name {
		return fmt.Errorf("scheduler: snapshot from scheme %q, scheduler is %q", snap.Scheme, m.name)
	}
	if m.inFlight || len(m.seen) > 0 {
		return fmt.Errorf("scheduler: %s restore on a used scheduler", m.name)
	}
	if snap.Rotation < 0 || snap.Rotation >= len(m.files) {
		return fmt.Errorf("scheduler: snapshot rotation %d out of range [0,%d)", snap.Rotation, len(m.files))
	}
	restored := make(map[string]bool, len(snap.Queues))
	for _, qs := range snap.Queues {
		q, ok := m.queues[qs.File]
		if !ok {
			return fmt.Errorf("scheduler: snapshot queue for unregistered file %q", qs.File)
		}
		if restored[qs.File] {
			return fmt.Errorf("scheduler: snapshot repeats queue for file %q", qs.File)
		}
		restored[qs.File] = true
		if err := load(q, qs); err != nil {
			return err
		}
		for _, js := range qs.Jobs {
			if m.seen[js.Meta.ID] {
				return fmt.Errorf("scheduler: snapshot repeats job %d across files", js.Meta.ID)
			}
			m.seen[js.Meta.ID] = true
		}
	}
	m.next = snap.Rotation
	return nil
}

// Submit implements Scheduler: the job is routed to its file's queue.
func (m *Multi[Q]) Submit(job JobMeta, at vclock.Time) error {
	q, ok := m.queues[job.File]
	if !ok {
		return fmt.Errorf("%w: job %d reads %q, no such file registered", ErrWrongFile, job.ID, job.File)
	}
	if m.seen[job.ID] {
		return fmt.Errorf("%w: %d", ErrDuplicateJob, job.ID)
	}
	if err := q.Submit(job, at); err != nil {
		return err
	}
	m.seen[job.ID] = true
	return nil
}

// NextRound implements Scheduler.
func (m *Multi[Q]) NextRound(now vclock.Time) (Round, bool) {
	if m.inFlight {
		panic(fmt.Sprintf("scheduler: %s NextRound called with a round in flight", m.name))
	}
	n := len(m.files)
	order := make([]int, n)
	for off := range order {
		order[off] = (m.next + off) % n
	}
	if m.rank != nil {
		score := make([][2]int64, n)
		for _, i := range order {
			score[i] = m.rank(m.queues[m.files[i]])
		}
		slices.SortStableFunc(order, func(a, b int) int {
			return slices.Compare(score[b][:], score[a][:]) // descending
		})
	}
	for _, i := range order {
		q := m.queues[m.files[i]]
		if r, ok := q.NextRound(now); ok {
			m.next = (i + 1) % n
			m.inFlight = true
			m.cur = q
			return r, true
		}
	}
	return Round{}, false
}

// RoundDone implements Scheduler.
func (m *Multi[Q]) RoundDone(r Round, now vclock.Time) []JobID {
	if !m.inFlight {
		panic(fmt.Sprintf("scheduler: %s RoundDone without a round in flight", m.name))
	}
	m.inFlight = false
	return m.cur.RoundDone(r, now)
}

// RequeueRound implements Recoverable.
func (m *Multi[Q]) RequeueRound(r Round, now vclock.Time) {
	if !m.inFlight {
		panic(fmt.Sprintf("scheduler: %s RequeueRound without a round in flight", m.name))
	}
	m.inFlight = false
	m.cur.RequeueRound(r, now)
}

// AbortJobs implements Recoverable: every queue strips the failed jobs
// (each ignores ids it never saw).
func (m *Multi[Q]) AbortJobs(ids []JobID, now vclock.Time) {
	for _, file := range m.files {
		m.queues[file].AbortJobs(ids, now)
	}
}

// PendingJobs implements Scheduler.
func (m *Multi[Q]) PendingJobs() int {
	total := 0
	for _, q := range m.queues {
		total += q.PendingJobs()
	}
	return total
}

// Stalled reports whether the scheduler is permanently stuck: some
// queue holds jobs, and every queue that does is stalled (a queue
// without a Stalled method never is).
func (m *Multi[Q]) Stalled() bool {
	stuck := false
	for _, q := range m.queues {
		if q.PendingJobs() > 0 {
			st, ok := any(q).(interface{ Stalled() bool })
			if !ok || !st.Stalled() {
				return false
			}
			stuck = true
		}
	}
	return stuck
}

// NewMultiMRShare builds MRShare batching per file, served round-robin:
// plans[i]'s file uses batch plan sizes[plans[i].File().Name], which
// every file needs. A file registered mid-run batches its expectJobs
// readers into one merged scan (MRShare assumes the query pattern is
// known in advance; for a derived file it is — the workload's
// dependency edges name every consumer). log may be nil.
func NewMultiMRShare(plans []*dfs.SegmentPlan, sizes map[string][]int, log *trace.Log) (*Multi[*MRShare], error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("scheduler: MultiMRShare needs at least one segment plan")
	}
	m := NewMulti("mrshare-multifile", func(p *dfs.SegmentPlan, expectJobs int) (*MRShare, error) {
		if expectJobs < 1 {
			return nil, fmt.Errorf("scheduler: MultiMRShare.AddPlan for %q needs the expected reader count, got %d", p.File().Name, expectJobs)
		}
		return NewMRShare(p, []int{expectJobs}, log)
	}, nil)
	for _, p := range plans {
		name := p.File().Name
		batch, ok := sizes[name]
		if !ok {
			return nil, fmt.Errorf("scheduler: MultiMRShare has no batch plan for file %q", name)
		}
		q, err := NewMRShare(p, batch, log)
		if err == nil {
			err = m.add(name, q)
		}
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}
