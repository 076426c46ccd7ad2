package core

import (
	"encoding/json"
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
)

// Job Queue Manager snapshot/restore. The JQM's entire state is a
// cursor plus per-job (start segment, remaining sub-jobs) — small
// enough to persist after every round, so a restarted master resumes
// scheduling exactly where the old one stopped. Sub-jobs are
// idempotent units: re-running the round that was in flight during a
// crash re-scans one segment, nothing more.
//
// The snapshot types are aliases of the scheduler package's shared
// surface (scheduler.Snapshottable), so the journal and the runtime
// engine persist scheduler state without importing a concrete scheme.

// JobSnapshot is one active job's persisted state.
type JobSnapshot = scheduler.JobSnapshot

// Snapshot is the JQM's full persisted state.
type Snapshot = scheduler.QueueSnapshot

var (
	_ scheduler.Snapshottable = (*S3)(nil)
	_ scheduler.Snapshottable = (*MultiFile)(nil)
)

// Snapshot captures the scheduler's state. It fails while a round is
// in flight: snapshot after RoundDone, when the state is consistent.
func (s *S3) Snapshot() (Snapshot, error) {
	if s.inFlight {
		return Snapshot{}, fmt.Errorf("core: cannot snapshot with a round in flight")
	}
	if len(s.pendingDone) > 0 {
		return Snapshot{}, fmt.Errorf("core: cannot snapshot with %d pipelined reduce(s) draining", len(s.pendingDone))
	}
	snap := Snapshot{
		File:     s.plan.File().Name,
		Segments: s.plan.NumSegments(),
		Cursor:   s.cursor,
	}
	for _, js := range s.active {
		snap.Jobs = append(snap.Jobs, JobSnapshot{
			Meta:         js.Meta,
			StartSegment: js.StartSegment,
			Remaining:    js.Remaining,
			SubmittedAt:  js.SubmittedAt,
		})
	}
	return snap, nil
}

// MarshalJSON-friendly helpers for persisting to disk.

// EncodeSnapshot serializes a snapshot.
func EncodeSnapshot(snap Snapshot) ([]byte, error) {
	return json.MarshalIndent(snap, "", "  ")
}

// DecodeSnapshot parses a serialized snapshot.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return snap, nil
}

// Restore rebuilds an S^3 scheduler from a snapshot over the given
// plan, which must match the snapshot's file and segment count.
func Restore(plan *dfs.SegmentPlan, snap Snapshot, log *trace.Log) (*S3, error) {
	s := New(plan, log)
	if err := s.restoreQueue(snap); err != nil {
		return nil, err
	}
	return s, nil
}

// restoreQueue loads a queue snapshot into a fresh scheduler.
func (s *S3) restoreQueue(snap Snapshot) error {
	plan := s.plan
	if plan.File().Name != snap.File {
		return fmt.Errorf("core: snapshot is for file %q, plan is for %q", snap.File, plan.File().Name)
	}
	if plan.NumSegments() != snap.Segments {
		return fmt.Errorf("core: snapshot has %d segments, plan has %d", snap.Segments, plan.NumSegments())
	}
	if snap.Cursor < 0 || snap.Cursor >= plan.NumSegments() {
		return fmt.Errorf("core: snapshot cursor %d out of range [0,%d)", snap.Cursor, plan.NumSegments())
	}
	s.cursor = snap.Cursor
	for _, js := range snap.Jobs {
		if js.Remaining < 1 || js.Remaining > plan.NumSegments() {
			return fmt.Errorf("core: job %d remaining %d out of range [1,%d]", js.Meta.ID, js.Remaining, plan.NumSegments())
		}
		if js.StartSegment < 0 || js.StartSegment >= plan.NumSegments() {
			return fmt.Errorf("core: job %d start segment %d out of range", js.Meta.ID, js.StartSegment)
		}
		if s.seen[js.Meta.ID] {
			return fmt.Errorf("core: snapshot repeats job %d", js.Meta.ID)
		}
		s.seen[js.Meta.ID] = true
		s.active = append(s.active, &JobState{
			Meta:         normalize(js.Meta),
			StartSegment: js.StartSegment,
			Remaining:    js.Remaining,
			SubmittedAt:  js.SubmittedAt,
		})
	}
	s.log.Addf(0, trace.BatchAdjusted, -1, snap.Cursor, "restored %d job(s) at cursor %d", len(snap.Jobs), snap.Cursor)
	return nil
}

// StateSnapshot implements scheduler.Snapshottable.
func (s *S3) StateSnapshot() (scheduler.Snapshot, error) {
	q, err := s.Snapshot()
	if err != nil {
		return scheduler.Snapshot{}, err
	}
	return scheduler.Snapshot{Scheme: s.Name(), Queues: []scheduler.QueueSnapshot{q}}, nil
}

// RestoreState implements scheduler.Snapshottable. The scheduler must
// be freshly constructed: restore replaces state, it does not merge.
func (s *S3) RestoreState(snap scheduler.Snapshot) error {
	if snap.Scheme != s.Name() {
		return fmt.Errorf("core: snapshot from scheme %q, scheduler is %q", snap.Scheme, s.Name())
	}
	if len(snap.Queues) != 1 {
		return fmt.Errorf("core: s3 snapshot must have exactly one queue, got %d", len(snap.Queues))
	}
	if s.inFlight || len(s.active) > 0 || len(s.seen) > 0 {
		return fmt.Errorf("core: RestoreState on a used scheduler")
	}
	return s.restoreQueue(snap.Queues[0])
}

// StateSnapshot implements scheduler.Snapshottable for the multi-file
// arbitrator: one queue snapshot per registered file, in registration
// order, plus the round-robin rotation pointer.
func (m *MultiFile) StateSnapshot() (scheduler.Snapshot, error) {
	return m.Snapshot((*S3).Snapshot)
}

// RestoreState implements scheduler.Snapshottable. Every snapshot
// queue must match a registered plan.
func (m *MultiFile) RestoreState(snap scheduler.Snapshot) error {
	return m.Restore(snap, (*S3).restoreQueue)
}
