package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
	"s3sched/internal/remote"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

// daemonConfig shapes the daemon workload: an s3cluster master run as
// a daemon (-serve, durable journal with fsync on every append) and
// two registered workers, all child processes on loopback, driven by
// an open-loop HTTP client.
type daemonConfig struct {
	blocks     int
	blockBytes int64
	workers    int
	jobs       []daemonJob
	// gap is the open loop's fixed inter-arrival time.
	gap time.Duration
	// repTimeout fails a repetition whose cluster stops making
	// progress, instead of hanging the benchmark.
	repTimeout time.Duration
}

type daemonJob struct{ factory, param string }

// daemonMix is the daemon's job mix: text scans and TPC-H-style
// selections and aggregations, alternating files.
var daemonMix = []daemonJob{
	{"wordcount", "t"}, {"selection", "5"}, {"wordcount", "a"}, {"aggregation", ""},
	{"wordcount", "w"}, {"selection", "20"}, {"wordcount", "h"}, {"aggregation", ""},
	{"wordcount", "m"}, {"selection", "10"}, {"wordcount", "s"}, {"aggregation", ""},
}

// The open loop submits the mix at a steady rate, all of it within a
// fraction of one pass: every job joins passes others are part-way
// through, batches hardly depend on timing, and a repetition is short
// enough for a run to take a few dozen.
var defaultDaemon = daemonConfig{
	blocks: 24, blockBytes: 128 << 10, workers: 2,
	jobs:       daemonMix,
	gap:        15 * time.Millisecond,
	repTimeout: 60 * time.Second,
}

// factoryFile mirrors s3cluster's routing of factories to input files.
func factoryFile(factory string) string {
	if factory == "selection" || factory == "aggregation" {
		return "lineitem"
	}
	return "corpus"
}

// daemonWorkload is one seed's cluster configuration, open-loop
// schedule and solo references.
type daemonWorkload struct {
	cfg     daemonConfig
	seed    int64
	bin     string
	workdir string
	due     []time.Duration // offset of each job's POST from the run start
	ref     []string        // solo-reference digest per job
	fsType  string
	client  *http.Client
}

func newDaemon(cfg daemonConfig, seed int64, bin, workdir string) (*daemonWorkload, error) {
	if bin == "" {
		return nil, fmt.Errorf("the daemon workload needs -s3cluster")
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	w := &daemonWorkload{cfg: cfg, seed: seed, bin: bin, workdir: workdir, fsType: filesystemType(workdir),
		client: &http.Client{Timeout: 10 * time.Second}}
	for i := range cfg.jobs {
		w.due = append(w.due, time.Duration(i)*cfg.gap)
	}
	// Solo references over the same bytes the workers generate from
	// the shared seed, materialized once.
	store, err := dfs.NewStore(1, 1)
	if err != nil {
		return nil, err
	}
	text, items := workload.NewTextGen(seed), workload.NewLineitemGen(seed)
	for _, f := range []struct {
		name string
		gen  func(int, int64) []byte
	}{{"corpus", text.Block}, {"lineitem", items.Block}} {
		data := make([][]byte, cfg.blocks)
		for i := range data {
			data[i] = f.gen(i, cfg.blockBytes)
		}
		if _, err := store.AddGeneratedFile(f.name, cfg.blocks, cfg.blockBytes, func(i int) ([]byte, error) { return data[i], nil }); err != nil {
			return nil, err
		}
	}
	reg := remote.NewStandardRegistry()
	eng := mapreduce.NewEngine(mapreduce.MustCluster(store, 2))
	solo := make(map[daemonJob]string)
	for i, j := range cfg.jobs {
		if _, done := solo[j]; !done {
			mapper, reducer, combiner, err := reg.Build(j.factory, j.param)
			if err != nil {
				return nil, err
			}
			res, err := eng.RunJob(mapreduce.JobSpec{
				Name: fmt.Sprintf("%s-%d", j.factory, i), File: factoryFile(j.factory),
				Mapper: mapper, Reducer: reducer, Combiner: combiner, NumReduce: 2,
			})
			if err != nil {
				return nil, fmt.Errorf("solo reference of job %d: %w", i, err)
			}
			solo[j] = digestKVs(res.Output)
		}
		w.ref = append(w.ref, solo[j])
	}
	return w, nil
}

func (w *daemonWorkload) describe() map[string]any {
	return map[string]any{
		"files":         []string{"corpus (text)", "lineitem"},
		"blocks":        w.cfg.blocks,
		"block_bytes":   w.cfg.blockBytes,
		"workers":       w.cfg.workers,
		"jobs":          len(w.cfg.jobs),
		"gap_ms":        w.cfg.gap.Milliseconds(),
		"journal_fs":    w.fsType,
		"journal_fsync": "always",
		"schedule":      "open loop, fixed gaps",
	}
}

// child is one s3cluster process with its log.
type child struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
}

// cluster is one repetition's master and workers.
type cluster struct {
	master   *child
	workers  []*child
	status   string // master's HTTP address
	blockRds int64  // from the master's shutdown report
	stopped  bool
}

func (w *daemonWorkload) start(c *child, args ...string) error {
	c.cmd = exec.Command(w.bin, args...)
	// The kernel kills a child whose parent dies, so a crashed or
	// killed benchmark leaves no cluster behind.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stdout = c.log
	c.cmd.Stderr = c.log
	if err := c.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", c.name, err)
	}
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		_ = c.cmd.Wait() // the exit status is judged by the caller's checks
	}()
	return nil
}

// newChild opens the process's log in dir.
func newChild(dir, name string) (*child, error) {
	f, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	return &child{name: name, log: f}, nil
}

// waitLog polls a child's log for a line containing marker and
// returns the text after it.
func waitLog(c *child, marker string, deadline time.Time) (string, error) {
	for {
		raw, err := os.ReadFile(c.log.Name())
		if err != nil {
			return "", err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if i := strings.Index(line, marker); i >= 0 {
				return line[i+len(marker):], nil
			}
		}
		select {
		case <-c.done:
			return "", fmt.Errorf("%s exited before reporting %q", c.name, marker)
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not report %q in time", c.name, marker)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// boot starts master and workers and returns once every worker has
// registered and the master serves HTTP.
func (w *daemonWorkload) boot(dir string) (*cluster, error) {
	cl := &cluster{}
	deadline := time.Now().Add(30 * time.Second)
	m, err := newChild(dir, "master")
	if err != nil {
		return cl, err
	}
	cl.master = m
	geom := []string{"-blocks", strconv.Itoa(w.cfg.blocks), "-blocksize", strconv.FormatInt(w.cfg.blockBytes, 10),
		"-seed", strconv.FormatInt(w.seed, 10)}
	args := append([]string{"-role", "master", "-serve", "-control", "127.0.0.1:0", "-status", "127.0.0.1:0",
		"-journal", filepath.Join(dir, "journal.wal"), "-fsync", "always",
		"-minworkers", strconv.Itoa(w.cfg.workers), "-jobs", "0"}, geom...)
	if err := w.start(m, args...); err != nil {
		return cl, err
	}
	ctrl, err := waitLog(m, "control plane on ", deadline)
	if err != nil {
		return cl, err
	}
	ctrl, _, _ = strings.Cut(ctrl, ";")
	for i := 0; i < w.cfg.workers; i++ {
		c, err := newChild(dir, fmt.Sprintf("worker%d", i+1))
		if err != nil {
			return cl, err
		}
		cl.workers = append(cl.workers, c)
		args := append([]string{"-role", "worker", "-master", ctrl, "-listen", "127.0.0.1:0",
			"-id", c.name}, geom...)
		if err := w.start(c, args...); err != nil {
			return cl, err
		}
	}
	addr, err := waitLog(m, "status dashboard: http://", deadline)
	if err != nil {
		return cl, err
	}
	cl.status = strings.TrimSuffix(strings.Fields(addr)[0], "/")
	return cl, nil
}

// stop interrupts the master (it drains and reports its workers'
// counters), then the workers together, and kills whatever has not
// exited in time. It always reaps every process.
func (cl *cluster) stop() error {
	if cl.stopped {
		return nil
	}
	cl.stopped = true
	var firstErr error
	halt := func(cs []*child, grace time.Duration) {
		for _, c := range cs {
			if c.done != nil {
				_ = c.cmd.Process.Signal(os.Interrupt) // fails only if already exited
			}
		}
		deadline := time.Now().Add(grace)
		for _, c := range cs {
			if c.done != nil {
				select {
				case <-c.done:
				case <-time.After(time.Until(deadline)):
					_ = c.cmd.Process.Kill()
					<-c.done
					if firstErr == nil {
						firstErr = fmt.Errorf("%s did not exit on interrupt", c.name)
					}
				}
			}
			c.log.Close()
		}
	}
	if cl.master != nil {
		halt([]*child{cl.master}, 10*time.Second)
		if raw, err := os.ReadFile(cl.master.log.Name()); err == nil {
			if _, after, ok := strings.Cut(string(raw), "cluster block reads: "); ok {
				cl.blockRds, _ = strconv.ParseInt(strings.Fields(after)[0], 10, 64)
			}
		}
	}
	halt(cl.workers, 5*time.Second)
	return firstErr
}

func (w *daemonWorkload) rep(traced bool) (*repResult, error) {
	dir, err := os.MkdirTemp(w.workdir, "daemon-")
	if err != nil {
		return nil, err
	}
	var out *repResult
	_, mem, err := measureProcess(func() error {
		var err error
		out, err = w.runCluster(dir)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%w (logs kept in %s)", err, dir)
	}
	mem.addTo(out.layers)
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d daemon job(s) failed; logs kept in %s\n", out.failed, dir)
		return out, nil
	}
	return out, os.RemoveAll(dir)
}

// runCluster boots a fresh cluster, drives the open-loop schedule
// through it, verifies outputs and tears it down.
func (w *daemonWorkload) runCluster(dir string) (_ *repResult, err error) {
	begin := time.Now()
	cl, err := w.boot(dir)
	defer func() {
		if serr := cl.stop(); err == nil && serr != nil {
			err = serr
		}
	}()
	if err != nil {
		return nil, err
	}
	out := &repResult{setup: time.Since(begin).Seconds(), jobs: len(w.cfg.jobs), layers: map[string]float64{}}
	base := "http://" + cl.status
	ctx, cancel := context.WithTimeout(context.Background(), w.cfg.repTimeout)
	defer cancel()

	n := len(w.cfg.jobs)
	ids := make([]scheduler.JobID, n)
	acks := make([]float64, n)
	late := make([]time.Duration, n)
	postErr := make([]error, n)
	t0 := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i, j := range w.cfg.jobs {
		wg.Add(1)
		go func(i int, j daemonJob) {
			defer wg.Done()
			due := t0.Add(w.due[i])
			time.Sleep(time.Until(due))
			sent := time.Now()
			late[i] = sent.Sub(due)
			ids[i], postErr[i] = w.post(ctx, base, j)
			acks[i] = float64(time.Since(sent).Microseconds()) / 1000
		}(i, j)
	}
	posted := make(chan struct{})
	go func() {
		wg.Wait()
		close(posted)
	}()

	// Poll job states from the first submission on, until every POST
	// has returned and every accepted job has settled.
	finished := make(map[scheduler.JobID]time.Time)
	states := make(map[scheduler.JobID]string)
	want := -1 // unknown until every POST has returned
	for want < 0 || len(finished) < want {
		if ctx.Err() != nil {
			<-posted
			return nil, fmt.Errorf("cluster stuck: %d jobs settled within %v", len(finished), w.cfg.repTimeout)
		}
		select {
		case <-posted:
			if want < 0 {
				want = 0
				for i := range ids {
					if postErr[i] == nil {
						want++
					}
				}
			}
		default:
		}
		var jobs []struct {
			ID    scheduler.JobID `json:"id"`
			State string          `json:"state"`
		}
		if err := w.getJSON(ctx, base+"/jobs", &jobs); err != nil {
			<-posted
			return nil, err
		}
		now := time.Now()
		for _, j := range jobs {
			if _, seen := finished[j.ID]; !seen && (j.State == "done" || j.State == "failed") {
				finished[j.ID] = now
				states[j.ID] = j.State
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	var last time.Time
	for i := range ids {
		if postErr[i] != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %d rejected: %v\n", i, postErr[i])
			out.failed++
			continue
		}
		done := finished[ids[i]]
		if done.After(last) {
			last = done
		}
		out.latencies = append(out.latencies, done.Sub(t0.Add(w.due[i])).Seconds())
		if states[ids[i]] != "done" {
			out.failed++
			continue
		}
		var kvs []mapreduce.KV
		if err := w.getJSON(ctx, fmt.Sprintf("%s/jobs/%d/output", base, ids[i]), &kvs); err != nil {
			return nil, err
		}
		if digestKVs(kvs) != w.ref[i] {
			fmt.Fprintf(os.Stderr, "perfbench: job %d (%s %s) output differs from its solo reference\n", ids[i], w.cfg.jobs[i].factory, w.cfg.jobs[i].param)
			out.failed++
		}
	}
	out.makespan = last.Sub(t0).Seconds()

	prom, err := w.scrape(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	rounds := prom["s3_rounds_total"]
	if rounds > 0 {
		out.shareRatio = prom["s3_round_batch_jobs_sum"] / rounds
	}
	master, err := readProc(cl.master.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	out.peakRSS = master.peakRSS
	var workerCPU float64
	for _, c := range cl.workers {
		ps, err := readProc(c.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out.peakRSS += ps.peakRSS
		workerCPU += ps.cpu
	}
	maxLate := time.Duration(0)
	for _, d := range late {
		maxLate = max(maxLate, d)
	}
	out.acks = acks
	l := out.layers
	l["journal.appends_per_job"] = prom["s3_journal_appends_total"] / float64(n)
	l["journal.mb_per_job"] = prom["s3_journal_bytes"] / (1 << 20) / float64(n)
	l["remote.round_busy_s"] = prom["s3_round_seconds_sum"] / 1e6 // the master runs at time scale 1e6
	l["remote.rounds"] = rounds
	l["remote.master_cpu_s"] = master.cpu
	l["remote.worker_cpu_s"] = workerCPU
	l["remote.master_rss_mb"] = master.peakRSS
	l["core.rounds"] = rounds
	l["core.batch_width_mean"] = out.shareRatio
	l["bench.generator_late_ms"] = float64(maxLate.Microseconds()) / 1000
	l["self.remote.round_busy"] = l["remote.round_busy_s"]
	if err := cl.stop(); err != nil {
		return nil, err
	}
	l["dfs.block_reads"] = float64(cl.blockRds)
	l["dfs.physical_mb"] = float64(cl.blockRds) * float64(w.cfg.blockBytes) / (1 << 20)
	return out, nil
}

func (w *daemonWorkload) post(ctx context.Context, base string, j daemonJob) (scheduler.JobID, error) {
	body, err := json.Marshal(map[string]string{"factory": j.factory, "param": j.param})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status already says it failed
		return 0, fmt.Errorf("POST /jobs: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var reply struct {
		ID scheduler.JobID `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return 0, fmt.Errorf("POST /jobs reply: %w", err)
	}
	return reply.ID, nil
}

func (w *daemonWorkload) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// scrape reads the unlabeled samples of a Prometheus text exposition.
func (w *daemonWorkload) scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// filesystemType names the filesystem holding dir.
func filesystemType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
