package runtime_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/vclock"
)

// lostExec loses every round, in whichever stage protocol the policy
// speaks — the worst case for requeue accounting.
type lostExec struct {
	calls int
}

func (l *lostExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	l.calls++
	return 0, &scheduler.RoundLostError{Round: r, Elapsed: 5, Err: errors.New("injected loss")}
}

func (l *lostExec) ExecMapStage(r scheduler.Round) (vclock.Duration, runtime.ReduceStage, error) {
	l.calls++
	return 0, nil, &scheduler.RoundLostError{Round: r, Elapsed: 5, Err: errors.New("injected loss")}
}

// TestPoliciesShareRequeueBound: the serial and pipelined stage
// policies run the same engine-owned requeue semantics — identical
// attempt counts and an identical giving-up error. This is the drift
// guard for the MaxRequeues bound the two legacy drivers used to
// duplicate.
func TestPoliciesShareRequeueBound(t *testing.T) {
	errs := make(map[bool]string)
	for _, pipeline := range []bool{false, true} {
		sched := core.New(parityPlan(t, 2), nil)
		exec := &lostExec{}
		_, err := runtime.RunTrace(sched, exec, []runtime.Arrival{{Job: parityMeta(1), At: 0}},
			runtime.Options{Pipeline: pipeline, MaxRequeues: 3})
		if err == nil {
			t.Fatalf("pipeline=%v: permanently lost round succeeded", pipeline)
		}
		if !strings.Contains(err.Error(), "giving up") {
			t.Errorf("pipeline=%v: error %q does not mention giving up", pipeline, err)
		}
		if exec.calls != 4 {
			t.Errorf("pipeline=%v: executor called %d times, want 4 (1 + 3 requeues)", pipeline, exec.calls)
		}
		errs[pipeline] = err.Error()
	}
	if errs[false] != errs[true] {
		t.Errorf("policies give different requeue errors:\nserial:    %s\npipelined: %s",
			errs[false], errs[true])
	}
}

// failDrainExec fails job 2's own code on its first round and reports
// it through the FailureReporter protocol, in both stage shapes.
type failDrainExec struct {
	reported bool
	failures []scheduler.JobFailure
	stats    metrics.FaultStats
}

func (f *failDrainExec) fail(r scheduler.Round) {
	for _, j := range r.Jobs {
		if j.ID == 2 && !f.reported {
			f.reported = true
			f.failures = append(f.failures, scheduler.JobFailure{ID: j.ID, Err: errors.New("mapper exploded")})
			f.stats.FailedAttempts++
		}
	}
}

func (f *failDrainExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	f.fail(r)
	return 10, nil
}

func (f *failDrainExec) ExecMapStage(r scheduler.Round) (vclock.Duration, runtime.ReduceStage, error) {
	f.fail(r)
	return 6, func() (vclock.Duration, error) { return 4, nil }, nil
}

func (f *failDrainExec) TakeJobFailures() []scheduler.JobFailure {
	out := f.failures
	f.failures = nil
	return out
}

func (f *failDrainExec) FaultStats() metrics.FaultStats { return f.stats }

// TestPoliciesShareFailureDrain: per-job failures drain identically
// under both policies — same failed set, no incomplete survivors, same
// folded fault stats.
func TestPoliciesShareFailureDrain(t *testing.T) {
	type outcome struct {
		failed   []scheduler.JobID
		rounds   int
		failJobs int
		attempts int
	}
	outcomes := make(map[bool]outcome)
	for _, pipeline := range []bool{false, true} {
		sched := core.New(parityPlan(t, 2), nil)
		exec := &failDrainExec{}
		res, err := runtime.RunTrace(sched, exec, []runtime.Arrival{
			{Job: parityMeta(1), At: 0},
			{Job: parityMeta(2), At: 0},
		}, runtime.Options{Pipeline: pipeline})
		if err != nil {
			t.Fatalf("pipeline=%v: %v", pipeline, err)
		}
		if n := len(res.Metrics.Incomplete()); n != 0 {
			t.Fatalf("pipeline=%v: %d incomplete jobs, want 0", pipeline, n)
		}
		fs := res.Metrics.FaultStats()
		outcomes[pipeline] = outcome{
			failed:   res.Metrics.Failed(),
			rounds:   res.Rounds,
			failJobs: fs.FailedJobs,
			attempts: fs.FailedAttempts,
		}
	}
	s, p := outcomes[false], outcomes[true]
	if len(s.failed) != 1 || s.failed[0] != 2 {
		t.Fatalf("serial failed = %v, want [2]", s.failed)
	}
	if len(p.failed) != 1 || p.failed[0] != 2 || s.rounds != p.rounds ||
		s.failJobs != p.failJobs || s.attempts != p.attempts {
		t.Errorf("drain outcomes diverge: serial %+v, pipelined %+v", s, p)
	}
}

// lossOnceExec loses the first round it is handed, then runs every
// round like failDrainExec.
type lossOnceExec struct {
	failDrainExec
	lost bool
}

func (l *lossOnceExec) ExecRound(r scheduler.Round) (vclock.Duration, error) {
	if !l.lost {
		l.lost = true
		return 0, &scheduler.RoundLostError{Round: r, Elapsed: 5, Err: errors.New("injected loss")}
	}
	return l.failDrainExec.ExecRound(r)
}

// TestMultiFileRecovers: the multi-file arbitrator — the scheduler the
// s3cluster master runs — recovers through the runtime like single-file
// S^3. A lost round is requeued and re-formed, and a job its executor
// reports failed is aborted while every other job, on either file,
// completes.
func TestMultiFileRecovers(t *testing.T) {
	for _, tc := range []struct {
		name     string
		exec     runtime.Executor
		requeued int
		failed   string
	}{
		// reported: true leaves the loss as the only fault.
		{"lost-round", &lossOnceExec{failDrainExec: failDrainExec{reported: true}}, 1, "[]"},
		{"failed-job", &failDrainExec{}, 0, "[2]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := dfs.MustStore(2, 1)
			var plans []*dfs.SegmentPlan
			for _, name := range []string{"input", "other"} {
				f, err := store.AddMetaFile(name, 2, 64<<20)
				if err != nil {
					t.Fatal(err)
				}
				p, err := dfs.PlanSegments(f, 1)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, p)
			}
			sched, err := core.NewMultiFile(plans, nil)
			if err != nil {
				t.Fatal(err)
			}
			other := parityMeta(2)
			other.File = "other"
			res, err := runtime.RunTrace(sched, tc.exec, []runtime.Arrival{
				{Job: parityMeta(1), At: 0},
				{Job: other, At: 0},
				{Job: parityMeta(3), At: 0},
			}, runtime.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if n := len(res.Metrics.Incomplete()); n != 0 {
				t.Fatalf("%d incomplete jobs, want 0", n)
			}
			if got := res.Metrics.FaultStats().RequeuedRounds; got != tc.requeued {
				t.Errorf("requeued rounds = %d, want %d", got, tc.requeued)
			}
			if got := fmt.Sprint(res.Metrics.Failed()); got != tc.failed {
				t.Errorf("failed = %s, want %s", got, tc.failed)
			}
			if sched.PendingJobs() != 0 {
				t.Errorf("scheduler still holds %d job(s)", sched.PendingJobs())
			}
		})
	}
}
