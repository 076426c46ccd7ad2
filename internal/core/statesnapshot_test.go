package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
)

// makeNamedPlan builds a segment plan over a named meta file.
func makeNamedPlan(t *testing.T, name string, numBlocks, perSegment int) *dfs.SegmentPlan {
	t.Helper()
	store := dfs.MustStore(4, 1)
	f, err := store.AddMetaFile(name, numBlocks, 64<<20)
	if err != nil {
		t.Fatalf("AddMetaFile: %v", err)
	}
	p, err := dfs.PlanSegments(f, perSegment)
	if err != nil {
		t.Fatalf("PlanSegments: %v", err)
	}
	return p
}

// step runs one full round on any scheduler.
func step(t *testing.T, s scheduler.Scheduler) []scheduler.JobID {
	t.Helper()
	r, ok := s.NextRound(0)
	if !ok {
		t.Fatal("scheduler idle with pending jobs")
	}
	return s.RoundDone(r, 0)
}

func TestS3StateSnapshotRoundtrip(t *testing.T) {
	s := New(makePlan(t, 12, 3), nil) // 4 segments
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	step(t, s)
	if err := s.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	step(t, s)

	snap, err := s.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Scheme != "s3" || len(snap.Queues) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// A restored scheduler finishes the remaining rounds identically.
	r2 := New(makePlan(t, 12, 3), nil)
	if err := r2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	var refDone, restDone []scheduler.JobID
	for s.PendingJobs() > 0 {
		refDone = append(refDone, step(t, s)...)
	}
	for r2.PendingJobs() > 0 {
		restDone = append(restDone, step(t, r2)...)
	}
	if len(refDone) != len(restDone) {
		t.Fatalf("ref completed %v, restored %v", refDone, restDone)
	}
	for i := range refDone {
		if refDone[i] != restDone[i] {
			t.Fatalf("ref completed %v, restored %v", refDone, restDone)
		}
	}
	// Restoring into a used scheduler is rejected.
	if err := r2.RestoreState(snap); err == nil {
		t.Fatal("RestoreState on a used scheduler succeeded")
	}
}

func TestS3StateSnapshotInFlightFails(t *testing.T) {
	s := New(makePlan(t, 12, 3), nil)
	if err := s.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextRound(0); !ok {
		t.Fatal("no round")
	}
	if _, err := s.StateSnapshot(); err == nil {
		t.Fatal("snapshot with round in flight succeeded")
	}
}

func TestMultiFileStateSnapshotRoundtrip(t *testing.T) {
	mk := func() *MultiFile {
		plans := []*dfs.SegmentPlan{
			makeNamedPlan(t, "corpus", 12, 3),   // 4 segments
			makeNamedPlan(t, "lineitem", 12, 3), // 4 segments
		}
		m, err := NewMultiFile(plans, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := mk()
	for i, f := range []string{"corpus", "corpus", "lineitem"} {
		if err := ref.Submit(fileJob(i+1, f, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Advance a few rounds so cursors and the rotation pointer move.
	step(t, ref)
	step(t, ref)
	step(t, ref)

	snap, err := ref.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Scheme != "s3-multifile" || len(snap.Queues) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := len(snap.Jobs()); got != 3 {
		t.Fatalf("snapshot holds %d jobs, want 3", got)
	}

	rest := mk()
	if err := rest.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	// Both finish the workload with identical round/completion order.
	var refSeq, restSeq []scheduler.JobID
	for ref.PendingJobs() > 0 {
		refSeq = append(refSeq, step(t, ref)...)
	}
	for rest.PendingJobs() > 0 {
		restSeq = append(restSeq, step(t, rest)...)
	}
	if len(refSeq) != len(restSeq) {
		t.Fatalf("ref %v restored %v", refSeq, restSeq)
	}
	for i := range refSeq {
		if refSeq[i] != restSeq[i] {
			t.Fatalf("ref %v restored %v", refSeq, restSeq)
		}
	}
	// A restored job id is still registered: resubmitting is a dup.
	if err := rest.Submit(fileJob(1, "corpus", 0), 0); err == nil {
		t.Fatal("restored job id resubmitted without error")
	}
}

func TestMultiFileRestoreRejectsMismatch(t *testing.T) {
	plans := []*dfs.SegmentPlan{makeNamedPlan(t, "corpus", 12, 3)}
	m, err := NewMultiFile(plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(scheduler.Snapshot{Scheme: "fifo"}); err == nil {
		t.Fatal("wrong scheme accepted")
	}
	if err := m.RestoreState(scheduler.Snapshot{
		Scheme: "s3-multifile",
		Queues: []scheduler.QueueSnapshot{{File: "nosuch", Segments: 4}},
	}); err == nil {
		t.Fatal("unregistered file accepted")
	}
	if err := m.RestoreState(scheduler.Snapshot{
		Scheme: "s3-multifile",
		Queues: []scheduler.QueueSnapshot{{File: "corpus", Segments: 99}},
	}); err == nil {
		t.Fatal("segment-count mismatch accepted")
	}
	for name, snap := range map[string]scheduler.Snapshot{
		"rotation out of range": {Scheme: "s3-multifile", Rotation: 2},
		"repeated queue": {Scheme: "s3-multifile", Queues: []scheduler.QueueSnapshot{
			{File: "corpus", Segments: 4}, {File: "corpus", Segments: 4},
		}},
		"job repeated across files": {Scheme: "s3-multifile", Queues: []scheduler.QueueSnapshot{
			{File: "corpus", Segments: 4, Jobs: []scheduler.JobSnapshot{{Meta: fileJob(1, "corpus", 0), Remaining: 4}}},
			{File: "lineitem", Segments: 4, Jobs: []scheduler.JobSnapshot{{Meta: fileJob(1, "lineitem", 0), Remaining: 4}}},
		}},
	} {
		fresh, err := NewMultiFile([]*dfs.SegmentPlan{
			makeNamedPlan(t, "corpus", 12, 3),
			makeNamedPlan(t, "lineitem", 12, 3),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreState(snap); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	used, err := NewMultiFile([]*dfs.SegmentPlan{makeNamedPlan(t, "corpus", 12, 3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := used.Submit(fileJob(1, "corpus", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := used.RestoreState(scheduler.Snapshot{Scheme: "s3-multifile"}); err == nil {
		t.Error("RestoreState on a used scheduler accepted")
	}
}

// parentMultiFileSnapshot is a MultiFile snapshot exactly as journals
// already on disk hold it: corpus and lineitem (4 segments each), jobs
// 1 and 2 (priority 0 and 1) one segment from done on corpus, job 3
// untouched on lineitem, and the rotation pointing at lineitem.
const parentMultiFileSnapshot = `{"scheme":"s3-multifile","rotation":1,"queues":[{"file":"corpus","segments":4,"cursor":3,"jobs":[{"meta":{"ID":1,"Name":"","File":"corpus","Weight":1,"ReduceWeight":1,"Priority":0},"startSegment":0,"remaining":1,"submittedAt":0},{"meta":{"ID":2,"Name":"","File":"corpus","Weight":1,"ReduceWeight":1,"Priority":1},"startSegment":0,"remaining":1,"submittedAt":0}]},{"file":"lineitem","segments":4,"cursor":0,"jobs":[{"meta":{"ID":3,"Name":"","File":"lineitem","Weight":1,"ReduceWeight":1,"Priority":0},"startSegment":0,"remaining":4,"submittedAt":0}]}]}`

// TestMultiFileRestoresPersistedSnapshot: the snapshot encoding is a
// durable format. A persisted snapshot restores, re-encodes to the same
// bytes, and resumes with the round order it was taken under: corpus's
// priority-1 job beats the rotation pointer, then lineitem runs alone.
func TestMultiFileRestoresPersistedSnapshot(t *testing.T) {
	var snap scheduler.Snapshot
	if err := json.Unmarshal([]byte(parentMultiFileSnapshot), &snap); err != nil {
		t.Fatal(err)
	}
	m, err := NewMultiFile([]*dfs.SegmentPlan{
		makeNamedPlan(t, "corpus", 12, 3),
		makeNamedPlan(t, "lineitem", 12, 3),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	again, err := m.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(again); string(b) != parentMultiFileSnapshot {
		t.Fatalf("re-encoded snapshot differs:\n got %s\nwant %s", b, parentMultiFileSnapshot)
	}
	var got []string
	for m.PendingJobs() > 0 {
		r, ok := m.NextRound(0)
		if !ok {
			t.Fatal("restored scheduler idle with pending jobs")
		}
		done := m.RoundDone(r, 0)
		got = append(got, fmt.Sprintf("%s:%d:%v", r.Blocks[0].File, r.Segment, done))
	}
	want := "[corpus:3:[1 2] lineitem:0:[] lineitem:1:[] lineitem:2:[] lineitem:3:[3]]"
	if fmt.Sprint(got) != want {
		t.Fatalf("rounds after restore = %v, want %s", got, want)
	}
	if err := m.Submit(fileJob(3, "corpus", 0), 0); !errors.Is(err, scheduler.ErrDuplicateJob) {
		t.Fatalf("resubmitting restored job 3 on another file: err = %v, want ErrDuplicateJob", err)
	}
}
