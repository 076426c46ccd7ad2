package scheduler

import (
	"errors"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/trace"
)

// makePlan builds a k-segment plan over a metadata file with m blocks
// per segment.
func makePlan(t *testing.T, numBlocks, perSegment int) *dfs.SegmentPlan {
	t.Helper()
	store := dfs.MustStore(4, 1)
	f, err := store.AddMetaFile("input", numBlocks, 64<<20)
	if err != nil {
		t.Fatalf("AddMetaFile: %v", err)
	}
	p, err := dfs.PlanSegments(f, perSegment)
	if err != nil {
		t.Fatalf("PlanSegments: %v", err)
	}
	return p
}

func job(id int) JobMeta {
	return JobMeta{ID: JobID(id), Name: "j", File: "input", Weight: 1, ReduceWeight: 1}
}

// drain runs the scheduler until idle, returning the rounds executed
// and the completion order.
func drain(t *testing.T, s Scheduler) (rounds []Round, completed []JobID) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("drain did not terminate")
		}
		r, ok := s.NextRound(0)
		if !ok {
			return rounds, completed
		}
		rounds = append(rounds, r)
		completed = append(completed, s.RoundDone(r, 0)...)
	}
}

func TestFIFOSingleJob(t *testing.T) {
	p := makePlan(t, 12, 3) // 4 segments
	f := NewFIFO(p, nil)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	rounds, completed := drain(t, f)
	if len(rounds) != 4 {
		t.Fatalf("rounds = %d, want 4", len(rounds))
	}
	for i, r := range rounds {
		if r.Segment != i {
			t.Errorf("round %d segment = %d, want %d (FIFO scans from the beginning)", i, r.Segment, i)
		}
		if len(r.Jobs) != 1 || r.Jobs[0].ID != 1 {
			t.Errorf("round %d jobs = %v", i, r.Jobs)
		}
	}
	if len(rounds[3].Completes) != 1 || rounds[3].Completes[0] != 1 {
		t.Errorf("final round completes = %v", rounds[3].Completes)
	}
	if len(completed) != 1 || completed[0] != 1 {
		t.Errorf("completed = %v", completed)
	}
	if f.PendingJobs() != 0 {
		t.Errorf("pending = %d", f.PendingJobs())
	}
}

func TestFIFORunsJobsSequentially(t *testing.T) {
	p := makePlan(t, 6, 3) // 2 segments
	f := NewFIFO(p, nil)
	for i := 1; i <= 3; i++ {
		if err := f.Submit(job(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	rounds, completed := drain(t, f)
	if len(rounds) != 6 {
		t.Fatalf("rounds = %d, want 6 (3 jobs x 2 segments, no sharing)", len(rounds))
	}
	// Every round carries exactly one job; jobs run in order.
	wantJobs := []JobID{1, 1, 2, 2, 3, 3}
	for i, r := range rounds {
		if len(r.Jobs) != 1 || r.Jobs[0].ID != wantJobs[i] {
			t.Errorf("round %d jobs = %v, want [%d]", i, r.JobIDs(), wantJobs[i])
		}
	}
	if want := []JobID{1, 2, 3}; len(completed) != 3 || completed[0] != want[0] || completed[1] != want[1] || completed[2] != want[2] {
		t.Errorf("completion order = %v, want %v", completed, want)
	}
}

func TestFIFOLateArrivalQueues(t *testing.T) {
	p := makePlan(t, 4, 2) // 2 segments
	f := NewFIFO(p, nil)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r1, _ := f.NextRound(0)
	// Job 2 arrives while job 1 runs; it must wait for both of job
	// 1's segments.
	if err := f.Submit(job(2), 1); err != nil {
		t.Fatal(err)
	}
	f.RoundDone(r1, 10)
	r2, _ := f.NextRound(10)
	if r2.Jobs[0].ID != 1 {
		t.Fatalf("round 2 runs job %d, want 1 (no preemption)", r2.Jobs[0].ID)
	}
	done := f.RoundDone(r2, 20)
	if len(done) != 1 || done[0] != 1 {
		t.Fatalf("done = %v", done)
	}
	r3, _ := f.NextRound(20)
	if r3.Jobs[0].ID != 2 || r3.Segment != 0 {
		t.Fatalf("job 2 should start from segment 0, got %+v", r3)
	}
}

func TestFIFODuplicateAndWrongFile(t *testing.T) {
	p := makePlan(t, 4, 2)
	f := NewFIFO(p, trace.MustNew(16))
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(job(1), 0); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("duplicate submit err = %v, want ErrDuplicateJob", err)
	}
	bad := job(2)
	bad.File = "other"
	if err := f.Submit(bad, 0); !errors.Is(err, ErrWrongFile) {
		t.Errorf("wrong-file submit err = %v, want ErrWrongFile", err)
	}
}

func TestFIFOProtocolViolationsPanic(t *testing.T) {
	p := makePlan(t, 4, 2)
	f := NewFIFO(p, nil)
	if err := f.Submit(job(1), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := f.NextRound(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NextRound with round in flight should panic")
			}
		}()
		f.NextRound(0)
	}()
	f.RoundDone(r, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RoundDone without round in flight should panic")
			}
		}()
		f.RoundDone(r, 1)
	}()
}

func TestFIFOIdleWhenEmpty(t *testing.T) {
	p := makePlan(t, 4, 2)
	f := NewFIFO(p, nil)
	if _, ok := f.NextRound(0); ok {
		t.Error("NextRound on empty scheduler should report no work")
	}
	if f.Name() != "fifo" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestFIFOWeightNormalization(t *testing.T) {
	p := makePlan(t, 2, 2)
	f := NewFIFO(p, nil)
	j := JobMeta{ID: 1, File: "input"} // zero weights
	if err := f.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	r, _ := f.NextRound(0)
	if r.Jobs[0].Weight != 1 || r.Jobs[0].ReduceWeight != 1 {
		t.Errorf("weights not defaulted: %+v", r.Jobs[0])
	}
}

func TestMultiFIFORoutesJobsByFile(t *testing.T) {
	// a has 2 segments, b has 3.
	f := NewFIFO(namedPlan(t, "a", 4, 2), trace.MustNew(64))
	if err := f.AddPlan(namedPlan(t, "b", 6, 2), 0); err != nil {
		t.Fatal(err)
	}
	if f.Name() != "fifo" {
		t.Fatalf("Name() = %q", f.Name())
	}
	if err := f.Submit(jobOn(1, "b"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(jobOn(2, "a"), 0); err != nil {
		t.Fatal(err)
	}
	if f.PendingJobs() != 2 {
		t.Fatalf("pending = %d, want 2", f.PendingJobs())
	}
	rounds, completed := drain(t, f)
	// Strict FIFO: job 1 scans b's 3 segments first, then job 2 scans
	// a's 2 — no interleaving across files.
	if len(rounds) != 5 {
		t.Fatalf("rounds = %d, want 5", len(rounds))
	}
	wantJobs := []JobID{1, 1, 1, 2, 2}
	for i, r := range rounds {
		if len(r.Jobs) != 1 || r.Jobs[0].ID != wantJobs[i] {
			t.Fatalf("round %d jobs = %v, want [%d]", i, r.JobIDs(), wantJobs[i])
		}
	}
	if rounds[0].FreshJobs != 1 || rounds[3].FreshJobs != 1 {
		t.Fatalf("fresh-job marks wrong: %+v", rounds)
	}
	if len(completed) != 2 || completed[0] != 1 || completed[1] != 2 {
		t.Fatalf("completed = %v, want [1 2]", completed)
	}
	if f.PendingJobs() != 0 {
		t.Fatalf("pending after drain = %d", f.PendingJobs())
	}
}

func TestMultiFIFOAddPlanMidRun(t *testing.T) {
	f := NewFIFO(namedPlan(t, "a", 2, 2), nil)
	if err := f.Submit(jobOn(1, "derived"), 0); !errors.Is(err, ErrWrongFile) {
		t.Fatalf("submit before AddPlan err = %v, want ErrWrongFile", err)
	}
	if err := f.AddPlan(namedPlan(t, "derived", 2, 2), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.AddPlan(namedPlan(t, "derived", 2, 2), 0); err == nil {
		t.Fatal("duplicate AddPlan accepted")
	}
	if err := f.Submit(jobOn(1, "derived"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(jobOn(1, "derived"), 0); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("duplicate submit err = %v, want ErrDuplicateJob", err)
	}
	_, completed := drain(t, f)
	if len(completed) != 1 || completed[0] != 1 {
		t.Fatalf("completed = %v", completed)
	}
}

func TestMultiFIFORequeueReformsRound(t *testing.T) {
	f := NewFIFO(namedPlan(t, "a", 2, 2), nil)
	if err := f.AddPlan(namedPlan(t, "b", 4, 2), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(jobOn(1, "b"), 0); err != nil {
		t.Fatal(err)
	}
	r1, ok := f.NextRound(0)
	if !ok {
		t.Fatal("no round")
	}
	f.RequeueRound(r1, 1)
	r2, ok := f.NextRound(2)
	if !ok || r2.Segment != r1.Segment {
		t.Fatalf("requeued round = %+v, want segment %d again", r2, r1.Segment)
	}
	f.RoundDone(r2, 3)
}

func TestMultiFIFOAbortJobs(t *testing.T) {
	f := NewFIFO(namedPlan(t, "a", 4, 2), nil)
	if err := f.AddPlan(namedPlan(t, "b", 4, 2), 0); err != nil {
		t.Fatal(err)
	}
	for i, file := range []string{"a", "b", "a"} {
		if err := f.Submit(jobOn(i+1, file), 0); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := f.NextRound(0) // job 1 running
	f.RoundDone(r, 1)
	// Abort the running job (1) and a queued job (3).
	f.AbortJobs([]JobID{1, 3}, 2)
	if f.PendingJobs() != 1 {
		t.Fatalf("pending = %d, want 1 (job 2)", f.PendingJobs())
	}
	_, completed := drain(t, f)
	if len(completed) != 1 || completed[0] != 2 {
		t.Fatalf("completed = %v, want [2]", completed)
	}
}

func TestMultiFIFOProtocolViolationsPanic(t *testing.T) {
	f := NewFIFO(namedPlan(t, "a", 2, 2), nil)
	if err := f.Submit(jobOn(1, "a"), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := f.NextRound(0)
	mustPanic(t, "NextRound in flight", func() { f.NextRound(0) })
	f.RoundDone(r, 1)
	mustPanic(t, "RoundDone idle", func() { f.RoundDone(r, 1) })
	mustPanic(t, "RequeueRound idle", func() { f.RequeueRound(r, 1) })
}
