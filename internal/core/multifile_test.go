package core

import (
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
)

// multiPlans builds two files ("alpha": 2 segments, "beta": 3
// segments) in one store.
func multiPlans(t *testing.T) []*dfs.SegmentPlan {
	t.Helper()
	store := dfs.MustStore(2, 1)
	fa, err := store.AddMetaFile("alpha", 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := store.AddMetaFile("beta", 6, 64)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := dfs.PlanSegments(fa, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := dfs.PlanSegments(fb, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []*dfs.SegmentPlan{pa, pb}
}

func fileJob(id int, file string, prio int) scheduler.JobMeta {
	return scheduler.JobMeta{ID: scheduler.JobID(id), File: file, Priority: prio}
}

func TestMultiFileRoutesByFile(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Files(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Files = %v", got)
	}
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "beta", 0), 0); err != nil {
		t.Fatal(err)
	}
	// Rounds alternate between the two files (round-robin at equal
	// priority), and every round's blocks belong to one file only.
	filesSeen := map[string]int{}
	for {
		r, ok := m.NextRound(0)
		if !ok {
			break
		}
		file := r.Blocks[0].File
		for _, b := range r.Blocks {
			if b.File != file {
				t.Fatalf("round mixes files: %v", r.Blocks)
			}
		}
		filesSeen[file]++
		m.RoundDone(r, 0)
	}
	if filesSeen["alpha"] != 2 || filesSeen["beta"] != 3 {
		t.Fatalf("rounds per file = %v, want alpha:2 beta:3", filesSeen)
	}
	if m.PendingJobs() != 0 {
		t.Fatalf("pending = %d", m.PendingJobs())
	}
}

func TestMultiFileRoundRobinFairness(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "beta", 0), 0); err != nil {
		t.Fatal(err)
	}
	var order []string
	for i := 0; i < 4; i++ {
		r, ok := m.NextRound(0)
		if !ok {
			break
		}
		order = append(order, r.Blocks[0].File)
		m.RoundDone(r, 0)
	}
	// alpha, beta, alpha, beta (equal priority alternation).
	want := []string{"alpha", "beta", "alpha", "beta"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMultiFilePriorityWins(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "beta", 5), 0); err != nil {
		t.Fatal(err)
	}
	// beta holds the high-priority job: it gets every round until its
	// job completes (3 segments), then alpha runs.
	var order []string
	for {
		r, ok := m.NextRound(0)
		if !ok {
			break
		}
		order = append(order, r.Blocks[0].File)
		m.RoundDone(r, 0)
	}
	want := []string{"beta", "beta", "beta", "alpha", "alpha"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMultiFileSharingWithinFile(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	r, ok := m.NextRound(0)
	if !ok || len(r.Jobs) != 2 {
		t.Fatalf("same-file jobs should share the round: %v", r.JobIDs())
	}
	m.RoundDone(r, 0)
}

func TestMultiFileErrors(t *testing.T) {
	if _, err := NewMultiFile(nil, nil); err == nil {
		t.Error("no plans should fail")
	}
	plans := multiPlans(t)
	if _, err := NewMultiFile([]*dfs.SegmentPlan{plans[0], plans[0]}, nil); err == nil {
		t.Error("duplicate file plans should fail")
	}
	m, err := NewMultiFile(plans, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "s3-multifile" {
		t.Errorf("Name = %q", m.Name())
	}
	if err := m.Submit(fileJob(1, "gamma", 0), 0); err == nil {
		t.Error("unregistered file should fail")
	}
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(1, "beta", 0), 0); err == nil {
		t.Error("duplicate id across files should fail")
	}
	if _, ok := m.NextRound(0); !ok {
		t.Fatal("expected a round")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double NextRound should panic")
			}
		}()
		m.NextRound(0)
	}()
}

func TestMultiFileIdle(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.NextRound(0); ok {
		t.Error("empty scheduler should be idle")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stray RoundDone should panic")
			}
		}()
		m.RoundDone(scheduler.Round{}, 0)
	}()
}

func TestMultiFileCacheAdvisorBreaksTies(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Equal priority: round-robin alone would serve alpha first. The
	// advisor reports beta's candidate segment as warmer, so beta wins
	// every tie until its jobs finish.
	m.SetCacheAdvisor(func(blocks []dfs.BlockID) int64 {
		if len(blocks) > 0 && blocks[0].File == "beta" {
			return 128
		}
		return 0
	})
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "beta", 0), 0); err != nil {
		t.Fatal(err)
	}
	var order []string
	for {
		r, ok := m.NextRound(0)
		if !ok {
			break
		}
		order = append(order, r.Blocks[0].File)
		m.RoundDone(r, 0)
	}
	want := []string{"beta", "beta", "beta", "alpha", "alpha"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMultiFileCacheAdvisorNeverOverridesPriority(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	// alpha's segments are reported as maximally warm, but beta holds
	// the higher-priority job — priority must still win.
	m.SetCacheAdvisor(func(blocks []dfs.BlockID) int64 {
		if len(blocks) > 0 && blocks[0].File == "alpha" {
			return 1 << 30
		}
		return 0
	})
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "beta", 5), 0); err != nil {
		t.Fatal(err)
	}
	r, ok := m.NextRound(0)
	if !ok {
		t.Fatal("no round")
	}
	if r.Blocks[0].File != "beta" {
		t.Fatalf("first round served %s, want beta (priority beats warmth)", r.Blocks[0].File)
	}
	m.RoundDone(r, 0)
}

func TestMultiFileScanHinterCarriesFileNames(t *testing.T) {
	m, err := NewMultiFile(multiPlans(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	hinted := map[string]int{}
	m.SetScanHinter(func(h dfs.ScanHint) { hinted[h.File]++ })
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(fileJob(2, "beta", 0), 0); err != nil {
		t.Fatal(err)
	}
	for {
		r, ok := m.NextRound(0)
		if !ok {
			break
		}
		m.RoundDone(r, 0)
	}
	// Each file's queue hints independently as its own cursor advances,
	// naming its file so one cache can track every pin window at once.
	if hinted["alpha"] == 0 || hinted["beta"] == 0 {
		t.Fatalf("hints per file = %v, want both files hinted", hinted)
	}
	for f := range hinted {
		if f != "alpha" && f != "beta" {
			t.Fatalf("hint for unknown file %q", f)
		}
	}
}

func TestMultiFileAddPlanMidRun(t *testing.T) {
	plans := multiPlans(t)
	m, err := NewMultiFile(plans[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	hinted := map[string]int{}
	m.SetScanHinter(func(h dfs.ScanHint) { hinted[h.File]++ })
	if err := m.Submit(fileJob(1, "alpha", 0), 0); err != nil {
		t.Fatal(err)
	}
	r, ok := m.NextRound(0)
	if !ok {
		t.Fatal("no round")
	}
	if err := m.AddPlan(plans[1], 1); err == nil {
		t.Fatal("AddPlan accepted with a round in flight")
	}
	m.RoundDone(r, 0)
	if err := m.AddPlan(plans[1], 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPlan(plans[1], 1); err == nil {
		t.Fatal("duplicate AddPlan accepted")
	}
	if got := m.Files(); len(got) != 2 || got[1] != "beta" {
		t.Fatalf("Files = %v, want beta appended", got)
	}
	if err := m.Submit(fileJob(2, "beta", 0), 0); err != nil {
		t.Fatal(err)
	}
	for m.PendingJobs() > 0 {
		r, ok := m.NextRound(0)
		if !ok {
			t.Fatal("idle with pending jobs")
		}
		m.RoundDone(r, 0)
	}
	// The queue registered mid-run inherits the installed scan hinter.
	if hinted["beta"] == 0 {
		t.Fatalf("hints per file = %v, want beta hinted", hinted)
	}
}
