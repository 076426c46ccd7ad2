package scheduler

import (
	"errors"
	"fmt"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
)

// namedPlan is makePlan for a caller-chosen file name, so multi-file
// schedulers can register several distinct files.
func namedPlan(t *testing.T, name string, numBlocks, perSegment int) *dfs.SegmentPlan {
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

func jobOn(id int, file string) JobMeta {
	return JobMeta{ID: JobID(id), Name: "j", File: file, Weight: 1, ReduceWeight: 1}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s should panic", what)
		}
	}()
	fn()
}

func TestMultiMRShareBatchesPerFile(t *testing.T) {
	m, err := NewMultiMRShare([]*dfs.SegmentPlan{
		namedPlan(t, "a", 4, 2), // 2 segments
		namedPlan(t, "b", 4, 2),
	}, map[string][]int{"a": {2}, "b": {1}}, trace.MustNew(64))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Files(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Files() = %v", got)
	}
	if m.Name() != "mrshare-multifile" {
		t.Fatalf("Name() = %q", m.Name())
	}
	if err := m.Submit(jobOn(1, "a"), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(jobOn(1, "a"), 0); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("duplicate err = %v", err)
	}
	if err := m.Submit(jobOn(2, "nope"), 0); !errors.Is(err, ErrWrongFile) {
		t.Fatalf("wrong-file err = %v", err)
	}
	// a's batch needs two jobs; with only one the scheduler is stalled.
	if _, ok := m.NextRound(0); ok {
		t.Fatal("half-filled batch produced a round")
	}
	if !m.Stalled() {
		t.Fatal("Stalled() = false with an unfillable batch and no other work")
	}
	if err := m.Submit(jobOn(3, "b"), 0); err != nil {
		t.Fatal(err)
	}
	if m.Stalled() {
		t.Fatal("Stalled() = true while b has a runnable batch")
	}
	if err := m.Submit(jobOn(2, "a"), 0); err != nil {
		t.Fatal(err)
	}
	if m.PendingJobs() != 3 {
		t.Fatalf("pending = %d, want 3", m.PendingJobs())
	}
	rounds, completed := drain(t, m)
	if len(rounds) != 4 {
		t.Fatalf("rounds = %d, want 4 (2 segments per file, a's jobs share)", len(rounds))
	}
	if len(completed) != 3 {
		t.Fatalf("completed = %v, want all three jobs", completed)
	}
	// a's batch of two shares one scan: some round carries both jobs.
	shared := false
	for _, r := range rounds {
		if len(r.Jobs) == 2 {
			shared = true
		}
	}
	if !shared {
		t.Fatal("a's batched jobs never shared a round")
	}
	if m.PendingJobs() != 0 {
		t.Fatalf("pending after drain = %d", m.PendingJobs())
	}
}

func TestMultiMRShareAddPlanMidRun(t *testing.T) {
	m, err := NewMultiMRShare([]*dfs.SegmentPlan{namedPlan(t, "a", 2, 2)},
		map[string][]int{"a": {1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPlan(namedPlan(t, "derived", 2, 2), 0); err == nil {
		t.Fatal("AddPlan accepted expectJobs < 1")
	}
	if err := m.AddPlan(namedPlan(t, "derived", 2, 2), 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPlan(namedPlan(t, "derived", 2, 2), 1); err == nil {
		t.Fatal("duplicate AddPlan accepted")
	}
	// The derived file's two expected readers form one merged batch.
	if err := m.Submit(jobOn(1, "derived"), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(jobOn(2, "derived"), 0); err != nil {
		t.Fatal(err)
	}
	rounds, completed := drain(t, m)
	if len(rounds) != 1 || len(rounds[0].Jobs) != 2 {
		t.Fatalf("rounds = %+v, want one shared scan", rounds)
	}
	if len(completed) != 2 {
		t.Fatalf("completed = %v", completed)
	}
}

func TestMultiMRShareConstructorErrors(t *testing.T) {
	if _, err := NewMultiMRShare(nil, nil, nil); err == nil {
		t.Fatal("accepted zero plans")
	}
	if _, err := NewMultiMRShare([]*dfs.SegmentPlan{namedPlan(t, "a", 2, 2)},
		map[string][]int{}, nil); err == nil {
		t.Fatal("accepted a file without a batch plan")
	}
}

func TestMultiMRShareRequeueAndAbort(t *testing.T) {
	m, err := NewMultiMRShare([]*dfs.SegmentPlan{namedPlan(t, "a", 4, 2)},
		map[string][]int{"a": {1, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(jobOn(1, "a"), 0); err != nil {
		t.Fatal(err)
	}
	r1, ok := m.NextRound(0)
	if !ok {
		t.Fatal("no round")
	}
	m.RequeueRound(r1, 1)
	r2, ok := m.NextRound(2)
	if !ok || r2.Segment != r1.Segment {
		t.Fatalf("requeued round = %+v, want segment %d", r2, r1.Segment)
	}
	m.RoundDone(r2, 3)
	m.AbortJobs([]JobID{1}, 4)
	if m.PendingJobs() != 0 {
		t.Fatalf("pending after abort = %d", m.PendingJobs())
	}
	if _, ok := m.NextRound(5); ok {
		t.Fatal("aborted job still scheduled")
	}

	mustPanic(t, "RoundDone idle", func() { m.RoundDone(r2, 6) })
	mustPanic(t, "RequeueRound idle", func() { m.RequeueRound(r2, 6) })
	if err := m.Submit(jobOn(2, "a"), 7); err != nil {
		t.Fatal(err)
	}
	r3, _ := m.NextRound(8)
	mustPanic(t, "NextRound in flight", func() { m.NextRound(8) })
	m.RoundDone(r3, 9)
}

// TestMultiRankAndSnapshotFraming drives the combinator directly: a rank
// overrides the rotation (ties fall back to it), Queue looks files up,
// and Snapshot/Restore frame per-queue state with the rotation pointer,
// rejecting malformed snapshots.
func TestMultiRankAndSnapshotFraming(t *testing.T) {
	mk := func() *Multi[*MRShare] {
		m := NewMulti("ranked", func(p *dfs.SegmentPlan, n int) (*MRShare, error) {
			return NewMRShare(p, []int{n}, nil)
		}, func(q *MRShare) [2]int64 {
			if q.plan.File().Name == "c" {
				return [2]int64{0, 1} // warmer than a and b, same priority
			}
			return [2]int64{}
		})
		for _, name := range []string{"a", "b", "c"} {
			if err := m.AddPlan(namedPlan(t, name, 2, 2), 1); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	m := mk()
	for i, file := range []string{"a", "b", "c"} {
		if err := m.Submit(jobOn(i+1, file), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := m.Queue("b"); !ok {
		t.Fatal("Queue(b) not found")
	}
	if _, ok := m.Queue("nope"); ok {
		t.Fatal("Queue found an unregistered file")
	}
	rounds, _ := drain(t, m)
	var order []string
	for _, r := range rounds {
		order = append(order, r.Blocks[0].File)
	}
	if got := fmt.Sprint(order); got != "[c a b]" {
		t.Fatalf("served %s, want [c a b] (rank first, then rotation)", got)
	}

	take := func(q *MRShare) (QueueSnapshot, error) {
		return QueueSnapshot{File: q.plan.File().Name, Cursor: q.PendingJobs()}, nil
	}
	snap, err := m.Snapshot(take)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Scheme != "ranked" || snap.Rotation != 2 || len(snap.Queues) != 3 || snap.Queues[2].File != "c" {
		t.Fatalf("snapshot = %+v", snap)
	}
	loaded := 0
	load := func(*MRShare, QueueSnapshot) error { loaded++; return nil }
	withJob := snap
	withJob.Queues = []QueueSnapshot{{File: "a", Jobs: []JobSnapshot{{Meta: jobOn(7, "a")}}}}
	fresh := mk()
	if err := fresh.Restore(withJob, load); err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || fresh.next != 2 {
		t.Fatalf("restore loaded %d queue(s), rotation %d", loaded, fresh.next)
	}
	if err := fresh.Submit(jobOn(7, "b"), 0); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("restored id resubmitted: err = %v, want ErrDuplicateJob", err)
	}
	for name, bad := range map[string]Snapshot{
		"scheme":      {Scheme: "other"},
		"rotation":    {Scheme: "ranked", Rotation: 3},
		"file":        {Scheme: "ranked", Queues: []QueueSnapshot{{File: "nope"}}},
		"queue twice": {Scheme: "ranked", Queues: []QueueSnapshot{{File: "a"}, {File: "a"}}},
		"job twice": {Scheme: "ranked", Queues: []QueueSnapshot{
			{File: "a", Jobs: []JobSnapshot{{Meta: jobOn(1, "a")}}},
			{File: "b", Jobs: []JobSnapshot{{Meta: jobOn(1, "b")}}},
		}},
	} {
		if err := mk().Restore(bad, load); err == nil {
			t.Errorf("%s: malformed snapshot accepted", name)
		}
	}
	if err := m.Restore(snap, load); err == nil {
		t.Error("Restore on a used combinator accepted")
	}
	if _, err := m.Snapshot(func(*MRShare) (QueueSnapshot, error) { return QueueSnapshot{}, errors.New("busy") }); err == nil {
		t.Error("queue snapshot error swallowed")
	}
}
