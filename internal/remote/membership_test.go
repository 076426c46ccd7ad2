package remote

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"s3sched/internal/comms"
	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/runtime"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
	"s3sched/internal/vclock"
	"s3sched/internal/workload"
)

// Fast control-plane timings for tests: heartbeats every 5ms, suspect
// after 15ms of silence, dead after 40ms, and a generous rejoin grace
// so workerless rounds wait for restarted workers instead of spinning.
var (
	testHeartbeat = 5 * time.Millisecond
	testCtlConfig = ControlConfig{
		SuspectAfter: 15 * time.Millisecond,
		DeadAfter:    40 * time.Millisecond,
		RejoinGrace:  2 * time.Second,
	}
)

// testStore builds a worker-local corpus copy.
func testStore(t *testing.T) *dfs.Store {
	t.Helper()
	store := dfs.MustStore(1, 1)
	if _, err := workload.AddTextFile(store, "corpus", testBlocks, testBlockSize, testSeed); err != nil {
		t.Fatal(err)
	}
	return store
}

// startRegisteredWorker serves a worker and registers it with the
// master's control plane under the given identity.
func startRegisteredWorker(t *testing.T, reg *Registry, ctlAddr, id string) *Worker {
	t.Helper()
	w := NewWorker(testStore(t), reg)
	if _, err := w.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := w.Register(ctlAddr, RegisterOptions{ID: id, Heartbeat: testHeartbeat}); err != nil {
		t.Fatal(err)
	}
	return w
}

// startDynamicCluster boots a control-plane master plus n registered
// workers and waits until all of them are live.
func startDynamicCluster(t *testing.T, n int, jobs map[scheduler.JobID]JobRef, cfg ControlConfig) (*Master, []*Worker, string) {
	t.Helper()
	reg := NewStandardRegistry()
	master := NewMaster(jobs)
	ctlAddr, err := master.ListenControl("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var workers []*Worker
	for i := 0; i < n; i++ {
		workers = append(workers, startRegisteredWorker(t, reg, ctlAddr, fmt.Sprintf("w%d", i)))
	}
	if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		master.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	return master, workers, ctlAddr
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// referenceResults runs the same wordcount jobs on the local in-process
// engine — the byte-identical yardstick for every failover scenario.
func referenceResults(t *testing.T, n int) map[scheduler.JobID]string {
	t.Helper()
	store := dfs.MustStore(3, 1)
	if _, err := workload.AddTextFile(store, "corpus", testBlocks, testBlockSize, testSeed); err != nil {
		t.Fatal(err)
	}
	engine := mapreduce.NewEngine(mapreduce.MustCluster(store, 1))
	prefixes := workload.DistinctPrefixes(n)
	out := make(map[scheduler.JobID]string, n)
	for i := 0; i < n; i++ {
		ref, err := engine.RunJob(workload.WordCountJob("ref", "corpus", prefixes[i], 2))
		if err != nil {
			t.Fatal(err)
		}
		out[scheduler.JobID(i+1)] = fmt.Sprint(ref.Output)
	}
	return out
}

// TestRegistrationHeartbeatLifecycle pins the control-plane happy path:
// register → joined → heartbeats acknowledged → snapshot carries
// identity and ledgers → death detection after a kill.
func TestRegistrationHeartbeatLifecycle(t *testing.T) {
	master, workers, _ := startDynamicCluster(t, 2, wordcountRefs(1), testCtlConfig)

	if n := master.LiveWorkers(); n != 2 {
		t.Fatalf("LiveWorkers = %d, want 2", n)
	}
	evs := master.TakeMemberEvents()
	regs := 0
	for _, ev := range evs {
		if ev.Kind == comms.MemberRegistered {
			regs++
		}
	}
	if regs != 2 {
		t.Fatalf("registration events = %d (of %v), want 2", regs, evs)
	}

	// Heartbeats flow and are acknowledged.
	waitFor(t, 2*time.Second, "acknowledged heartbeats", func() bool {
		return workers[0].Heartbeats() > 2 && workers[1].Heartbeats() > 2
	})

	// The snapshot carries identity, state, and connection ledgers.
	snap := master.ClusterSnapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d workers, want 2", len(snap))
	}
	for _, wi := range snap {
		if wi.State != comms.Joined.String() {
			t.Errorf("worker %s state %q, want joined", wi.ID, wi.State)
		}
		if wi.Static {
			t.Errorf("worker %s reported static", wi.ID)
		}
		if wi.TaskAddr == "" {
			t.Errorf("worker %s has no task address", wi.ID)
		}
		if wi.Control.FramesRecv == 0 || wi.Control.FramesSent == 0 {
			t.Errorf("worker %s control ledger empty: %+v", wi.ID, wi.Control)
		}
	}

	// Kill one worker: its broken control connection (or heartbeat
	// silence) walks it to dead, observable as an event and in the
	// live count.
	if err := workers[1].Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "death detection", func() bool {
		return master.LiveWorkers() == 1
	})
	lost := false
	for _, ev := range master.TakeMemberEvents() {
		if ev.Kind == comms.MemberLost && ev.Worker == "w1" {
			lost = true
		}
	}
	if !lost {
		t.Error("no MemberLost event for the killed worker")
	}
}

// TestWorkerReconnectsAfterMasterRestart: a worker's control loop must
// survive losing the master and re-register with a replacement
// listening on the same address.
func TestWorkerReconnectsAfterMasterRestart(t *testing.T) {
	reg := NewStandardRegistry()
	master := NewMaster(nil)
	ctlAddr, err := master.ListenControl("127.0.0.1:0", testCtlConfig)
	if err != nil {
		t.Fatal(err)
	}
	w := startRegisteredWorker(t, reg, ctlAddr, "w0")
	defer w.Close()
	if err := master.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := master.Close(); err != nil {
		t.Fatal(err)
	}

	// A replacement master reuses the control address; the worker's
	// backoff loop finds it and registers again.
	master2 := NewMaster(nil)
	if _, err := master2.ListenControl(ctlAddr, testCtlConfig); err != nil {
		t.Fatal(err)
	}
	defer master2.Close()
	if err := master2.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatalf("worker did not re-register with restarted master: %v", err)
	}
	// The master admits the worker before the worker processes the ack
	// that bumps its own counter, so poll rather than assert instantly.
	waitFor(t, 2*time.Second, "second registration ack", func() bool {
		return w.Registrations() >= 2
	})
}

// dynamicRun drives jobs through the runtime engine against a dynamic
// master.
func dynamicRun(t *testing.T, master *Master, sched scheduler.Scheduler, njobs int, spans *trace.Log, hooks runtime.Hooks) *runtime.Result {
	t.Helper()
	master.SetTimeScale(1e6)
	var arrivals []runtime.Arrival
	for i := 1; i <= njobs; i++ {
		arrivals = append(arrivals, runtime.Arrival{
			Job: scheduler.JobMeta{ID: scheduler.JobID(i), File: "corpus"},
		})
	}
	res, err := runtime.RunTrace(sched, master, arrivals, runtime.Options{Spans: spans, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRollingRestartByteIdentical is the tentpole proof: kill a worker
// after the first round of a multi-round pass, bring up a replacement
// under the same identity mid-run, and require (a) the run completes,
// (b) outputs are byte-identical to the undisturbed local reference,
// (c) the trace shows the loss and the rejoin.
func TestRollingRestartByteIdentical(t *testing.T) {
	jobs := wordcountRefs(2)
	master, workers, ctlAddr := startDynamicCluster(t, 2, jobs, testCtlConfig)
	reg := NewStandardRegistry()
	spans := trace.MustNew(1 << 14)
	master.SetTrace(spans)

	// Hooks run on the engine's goroutine (this test's goroutine), so
	// rolling the worker synchronously inside the hook is race-free and
	// places the restart deterministically between rounds 1 and 2.
	var replacement *Worker
	rounds := 0
	hooks := runtime.Hooks{
		OnRoundDone: func(r scheduler.Round, _ vclock.Time, _ []scheduler.JobID) {
			rounds++
			if rounds != 1 {
				return
			}
			if err := workers[1].Close(); err != nil {
				t.Error(err)
				return
			}
			waitFor(t, 5*time.Second, "loss detection", func() bool {
				return master.LiveWorkers() == 1
			})
			replacement = startRegisteredWorker(t, reg, ctlAddr, "w1")
			waitFor(t, 5*time.Second, "replacement rejoin", func() bool {
				return master.LiveWorkers() == 2
			})
		},
	}
	res := dynamicRun(t, master, core.New(testPlan(t), nil), 2, spans, hooks)
	if replacement != nil {
		defer replacement.Close()
	}
	if rounds < 2 {
		t.Fatalf("run finished in %d rounds; the restart never happened mid-run", rounds)
	}
	if n := len(res.Metrics.Incomplete()); n != 0 {
		t.Fatalf("%d incomplete jobs", n)
	}

	// Byte-identical outputs despite the restart.
	want := referenceResults(t, 2)
	for id, ref := range want {
		if got := fmt.Sprint(master.Results()[id]); got != ref {
			t.Errorf("job %d: rolling restart changed results", id)
		}
	}

	// The membership churn reached the run's trace through the engine.
	if len(spans.OfKind(trace.WorkerLost)) == 0 {
		t.Error("trace has no worker-lost event")
	}
	if len(spans.OfKind(trace.WorkerRejoined)) == 0 {
		t.Error("trace has no worker-rejoined event")
	}
	if len(spans.OfKind(trace.WorkerRegistered)) < 2 {
		t.Error("trace missing initial worker-registered events")
	}
}

// TestFullOutageRequeuesUntilRejoin: with every worker dead, rounds are
// reported lost and requeued; when a worker comes back the requeued
// round completes and results are still byte-identical. It runs once
// per scheduler shape the master can drive: single-file S^3 and the
// multi-file arbitrator the s3cluster master runs.
func TestFullOutageRequeuesUntilRejoin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched func(*dfs.SegmentPlan) (scheduler.Scheduler, error)
	}{
		{"s3", func(p *dfs.SegmentPlan) (scheduler.Scheduler, error) { return core.New(p, nil), nil }},
		{"s3-multifile", func(p *dfs.SegmentPlan) (scheduler.Scheduler, error) {
			return core.NewMultiFile([]*dfs.SegmentPlan{p}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := tc.sched(testPlan(t))
			if err != nil {
				t.Fatal(err)
			}
			fullOutage(t, sched)
		})
	}
}

func fullOutage(t *testing.T, sched scheduler.Scheduler) {
	// Short rejoin grace so workerless rounds are actually lost and
	// requeued (rather than blocking until the restart lands).
	cfg := testCtlConfig
	cfg.RejoinGrace = 20 * time.Millisecond
	jobs := wordcountRefs(1)
	master, workers, ctlAddr := startDynamicCluster(t, 1, jobs, cfg)
	reg := NewStandardRegistry()

	// The replacement is built on this goroutine (test helpers may call
	// t.Fatal) but served and registered from a timer goroutine, so the
	// engine spends a few requeue cycles with zero live workers first.
	replacement := NewWorker(testStore(t), reg)
	var repErr error
	var repOnce sync.Once
	var repDone = make(chan struct{})
	startReplacement := func() {
		repOnce.Do(func() {
			defer close(repDone)
			if _, err := replacement.Serve("127.0.0.1:0"); err != nil {
				repErr = err
				return
			}
			repErr = replacement.Register(ctlAddr, RegisterOptions{ID: "w0", Heartbeat: testHeartbeat})
		})
	}
	defer replacement.Close()

	rounds := 0
	hooks := runtime.Hooks{
		OnRoundDone: func(r scheduler.Round, _ vclock.Time, _ []scheduler.JobID) {
			rounds++
			if rounds != 1 {
				return
			}
			if err := workers[0].Close(); err != nil {
				t.Error(err)
				return
			}
			waitFor(t, 5*time.Second, "loss detection", func() bool {
				return master.LiveWorkers() == 0
			})
			time.AfterFunc(150*time.Millisecond, startReplacement)
		},
	}
	res := dynamicRun(t, master, sched, 1, nil, hooks)
	<-repDone
	if repErr != nil {
		t.Fatalf("replacement worker: %v", repErr)
	}
	if n := len(res.Metrics.Incomplete()); n != 0 {
		t.Fatalf("%d incomplete jobs", n)
	}
	if fs := res.Metrics.FaultStats(); fs.RequeuedRounds == 0 {
		t.Error("outage produced no requeued rounds")
	}
	want := referenceResults(t, 1)
	if got := fmt.Sprint(master.Results()[1]); got != want[1] {
		t.Error("outage + requeue changed results")
	}
}
