package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s3sched/internal/benchfmt"
	"s3sched/internal/workload"
)

// compareWorkload is a small full-featured workload: real text content
// (so engine cells run), a cache budget sized to hold the whole file
// (so cache counters are eviction-free and deterministic), no faults.
const compareWorkload = `{"kind":"workload","version":1,"name":"compare-test","nodes":2,"slotsPerNode":1,"replicas":1,"cacheMBPerNode":1,"cacheFrac":0.25,"cost":{"scanMBps":0.01,"mapMBps":0.5,"taskOverhead":0.05,"dispatchPerJob":0.01,"roundOverhead":0.1,"jobSetup":0.2,"sharePenalty":0.02,"tagPenalty":0.05,"reducePerRound":0.05,"reduceSetup":0.05}}
{"kind":"file","name":"corpus","content":"text","blocks":8,"blockBytes":4096,"segmentBlocks":2,"seed":11}
{"kind":"job","id":1,"at":0,"file":"corpus","factory":"wordcount","param":"t"}
{"kind":"job","id":2,"at":3,"file":"corpus","factory":"wordcount","param":"a"}
{"kind":"job","id":3,"at":20,"file":"corpus","factory":"aggregation","param":""}
`

func parseCompareWorkload(t *testing.T) *workload.File {
	t.Helper()
	wf, err := workload.ParseFile(strings.NewReader(strings.Replace(compareWorkload,
		`"factory":"aggregation","param":""`, `"factory":"wordcount","param":"w"`, 1)))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	return wf
}

func TestRunCompareFullMatrix(t *testing.T) {
	wf := parseCompareWorkload(t)
	rep, err := RunCompare(wf, CompareOptions{})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	// 3 schedulers × 2 engines × 2 pipelines × 2 caches.
	if len(rep.Cells) != 24 {
		t.Fatalf("got %d cells, want 24", len(rep.Cells))
	}
	digest, err := rep.DigestConsensus()
	if err != nil {
		t.Fatalf("DigestConsensus: %v", err)
	}
	if digest == "" {
		t.Fatal("no output digest on a content workload")
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.TET <= 0 || c.ART <= 0 || c.Rounds <= 0 {
			t.Fatalf("cell %s has degenerate metrics: %+v", c.Key, c)
		}
		if len(c.Jobs) != len(wf.Jobs) {
			t.Fatalf("cell %s has %d job rows, want %d", c.Key, len(c.Jobs), len(wf.Jobs))
		}
		if c.OutputDigest != digest {
			t.Fatalf("cell %s digest %.12s != consensus %.12s", c.Key, c.OutputDigest, digest)
		}
	}
	// Cache-on cells observe real (or modeled) cache hits: the sparse
	// third job re-scans blocks the first pass already read.
	warm := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineReal, Cache: true})
	if warm == nil || warm.CacheHitRatio <= 0 {
		t.Fatalf("engine cache cell saw no hits: %+v", warm)
	}
}

// TestRunCompareDeterministic is the harness's determinism regression
// test: the same workload run twice encodes byte-identically — engine
// cells included, because their timings come from the cost model, not
// the wall clock.
func TestRunCompareDeterministic(t *testing.T) {
	wf := parseCompareWorkload(t)
	encode := func() []byte {
		rep, err := RunCompare(wf, CompareOptions{})
		if err != nil {
			t.Fatalf("RunCompare: %v", err)
		}
		var buf bytes.Buffer
		if err := rep.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs of the same workload differ:\n%s\nvs\n%s", a, b)
	}
}

// TestRunCompareSimEngineTwins: a sim cell and its engine twin march
// through the same round sequence with the same virtual timings
// (cache-off cells; cache-on sim cells price warm reads the engine
// timer does not model).
func TestRunCompareSimEngineTwins(t *testing.T) {
	wf := parseCompareWorkload(t)
	rep, err := RunCompare(wf, CompareOptions{Caches: []bool{false}})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	for _, sched := range CompareSchedulers() {
		for _, pipe := range []bool{false, true} {
			simCell := rep.Cell(benchfmt.CellKey{Scheduler: sched, Engine: benchfmt.EngineSim, Pipeline: pipe})
			engCell := rep.Cell(benchfmt.CellKey{Scheduler: sched, Engine: benchfmt.EngineReal, Pipeline: pipe})
			if simCell == nil || engCell == nil {
				t.Fatalf("missing twin for %s/pipe=%v", sched, pipe)
			}
			if simCell.TET != engCell.TET || simCell.Rounds != engCell.Rounds {
				t.Fatalf("%s pipe=%v: sim TET=%v rounds=%d, engine TET=%v rounds=%d",
					sched, pipe, simCell.TET, simCell.Rounds, engCell.TET, engCell.Rounds)
			}
			if simCell.ART != engCell.ART {
				t.Fatalf("%s pipe=%v: sim ART=%v != engine ART=%v", sched, pipe, simCell.ART, engCell.ART)
			}
		}
	}
}

func TestRunCompareSubMatrixAndMeta(t *testing.T) {
	wf := parseCompareWorkload(t)
	rep, err := RunCompare(wf, CompareOptions{
		Schedulers: []string{"s3"},
		Engines:    []string{benchfmt.EngineSim},
		Pipelines:  []bool{false},
		Caches:     []bool{false},
	})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("sub-matrix gave %d cells", len(rep.Cells))
	}

	// Meta content: engine cells drop out, digests are empty.
	meta, err := workload.ParseFile(strings.NewReader(strings.NewReplacer(
		`"content":"text"`, `"content":"meta"`,
		`"seed":11`, `"seed":0`,
	).Replace(compareWorkload)))
	if err != nil {
		t.Fatalf("meta workload: %v", err)
	}
	mrep, err := RunCompare(meta, CompareOptions{})
	if err != nil {
		t.Fatalf("RunCompare(meta): %v", err)
	}
	if len(mrep.Cells) != 12 {
		t.Fatalf("meta matrix gave %d cells, want 12 (sim only)", len(mrep.Cells))
	}
	for i := range mrep.Cells {
		if mrep.Cells[i].Key.Engine != benchfmt.EngineSim {
			t.Fatalf("meta workload ran engine cell %s", mrep.Cells[i].Key)
		}
		if mrep.Cells[i].OutputDigest != "" {
			t.Fatalf("meta cell %s carries a digest", mrep.Cells[i].Key)
		}
	}
	// Engine-only on meta content is an explicit error.
	if _, err := RunCompare(meta, CompareOptions{Engines: []string{benchfmt.EngineReal}}); err == nil {
		t.Fatal("engine-only meta compare did not fail")
	}
	// Cache cells without a budget are an explicit error.
	noCache := parseCompareWorkload(t)
	noCache.Header.CacheMBPerNode = 0
	if _, err := RunCompare(noCache, CompareOptions{Caches: []bool{true}}); err == nil {
		t.Fatal("cache cells without a budget did not fail")
	}
}

// TestRunCompareLineitem covers the selection/aggregation factories on
// lineitem content through the matrix (map-only and combiner jobs take
// different engine paths than wordcount).
func TestRunCompareLineitem(t *testing.T) {
	src := `{"kind":"workload","version":1,"name":"li","nodes":2,"slotsPerNode":1,"replicas":1,"cost":{"scanMBps":0.01,"mapMBps":0.5,"taskOverhead":0.05,"dispatchPerJob":0.01,"roundOverhead":0.1,"jobSetup":0.2,"sharePenalty":0.02,"tagPenalty":0.05,"reducePerRound":0.05,"reduceSetup":0.05}}
{"kind":"file","name":"lineitem","content":"lineitem","blocks":8,"blockBytes":4096,"segmentBlocks":2,"seed":3}
{"kind":"job","id":1,"at":0,"file":"lineitem","factory":"selection","param":"25"}
{"kind":"job","id":2,"at":1,"file":"lineitem","factory":"aggregation","numReduce":2}
`
	wf, err := workload.ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	rep, err := RunCompare(wf, CompareOptions{Pipelines: []bool{true}})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	digest, err := rep.DigestConsensus()
	if err != nil || digest == "" {
		t.Fatalf("DigestConsensus = %q, %v", digest, err)
	}
}

func TestRunCompareRejects(t *testing.T) {
	wf := parseCompareWorkload(t)
	if _, err := RunCompare(wf, CompareOptions{Schedulers: []string{"bogus"}}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := RunCompare(wf, CompareOptions{Engines: []string{"abacus"}}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestCanonicalWorkloadOrdering runs the committed canonical workload
// (the one the CI perf gate diffs against bench/baseline.json) and
// asserts the paper's headline result holds on it: on a sparse arrival
// pattern, S3's shared circular scan beats MRShare's batch-everything,
// which beats FIFO's scan-per-job, on both TET and ART.
func TestCanonicalWorkloadOrdering(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "bench", "canonical.jsonl"))
	if err != nil {
		t.Fatalf("canonical workload: %v", err)
	}
	defer f.Close()
	wf, err := workload.ParseFile(f)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	rep, err := RunCompare(wf, CompareOptions{
		Engines:   []string{benchfmt.EngineSim},
		Pipelines: []bool{false},
		Caches:    []bool{false},
	})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	cell := func(sched string) *benchfmt.Cell {
		c := rep.Cell(benchfmt.CellKey{Scheduler: sched, Engine: benchfmt.EngineSim})
		if c == nil {
			t.Fatalf("no %s cell", sched)
		}
		return c
	}
	s3, mrs, fifo := cell("s3"), cell("mrs1"), cell("fifo")
	if !(s3.TET < mrs.TET && mrs.TET < fifo.TET) {
		t.Errorf("TET ordering broken: s3=%.2f mrs1=%.2f fifo=%.2f (want s3 < mrs1 < fifo)",
			s3.TET, mrs.TET, fifo.TET)
	}
	if !(s3.ART < mrs.ART && s3.ART < fifo.ART) {
		t.Errorf("S3 does not win ART: s3=%.2f mrs1=%.2f fifo=%.2f", s3.ART, mrs.ART, fifo.ART)
	}
}

// TestCompareMatchesPinnedBaselines runs every committed bench/*.jsonl
// workload through the default s3compare matrix and requires the
// encoded report to equal its pinned baseline byte for byte:
// bench/baseline.json for canonical, bench/<name>-baseline.json for the
// rest. The CI s3report gate only fails a regression beyond its bound;
// this fails on any drift at all.
func TestCompareMatchesPinnedBaselines(t *testing.T) {
	bench := filepath.Join("..", "..", "bench")
	workloads, err := filepath.Glob(filepath.Join(bench, "*.jsonl"))
	if err != nil || len(workloads) == 0 {
		t.Fatalf("no committed workloads under %s (err %v)", bench, err)
	}
	for _, path := range workloads {
		name := strings.TrimSuffix(filepath.Base(path), ".jsonl")
		t.Run(name, func(t *testing.T) {
			baseline := name + "-baseline.json"
			if name == "canonical" {
				baseline = "baseline.json"
			}
			want, err := os.ReadFile(filepath.Join(bench, baseline))
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			wf, err := workload.ParseFile(f)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunCompare(wf, CompareOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := rep.Encode(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("report differs from bench/%s (%d bytes, want %d)", baseline, got.Len(), len(want))
			}
		})
	}
}

// TestRunCompareFaultWorkload exercises the fault path end to end on
// both engines: the sim prices modeled retries, the engine recovers
// real injected read faults, and outputs still match the fault-free
// solo reference.
func TestRunCompareFaultWorkload(t *testing.T) {
	faulty, err := workload.ParseFile(strings.NewReader(strings.NewReplacer(
		`"cacheMBPerNode":1`, `"faultRate":0.05,"faultSeed":7,"cacheMBPerNode":1`,
		`"factory":"aggregation","param":""`, `"factory":"wordcount","param":"w"`,
	).Replace(compareWorkload)))
	if err != nil {
		t.Fatalf("fault workload: %v", err)
	}
	rep, err := RunCompare(faulty, CompareOptions{
		Schedulers: []string{"s3"},
		Pipelines:  []bool{false},
		Caches:     []bool{false},
	})
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	if _, err := rep.DigestConsensus(); err != nil {
		t.Fatalf("fault injection changed outputs: %v", err)
	}
	simCell := rep.Cell(benchfmt.CellKey{Scheduler: "s3", Engine: benchfmt.EngineSim})
	if simCell == nil || simCell.FaultRetries == 0 {
		t.Fatalf("sim cell priced no retries at 5%% fault rate: %+v", simCell)
	}
}
