package core

import (
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/scheduler"
	"s3sched/internal/trace"
)

// MultiFile generalizes S^3 beyond the paper's single-input-file
// context (§III-A) — one of the §VI extension directions. It keeps an
// independent S^3 Job Queue Manager per registered file (routing,
// rotation, recovery and AddPlan come from scheduler.Multi) and
// arbitrates the cluster among files one round at a time:
//
//  1. files whose queues hold the highest-priority waiting job go
//     first (the §VI "job priorities" policy);
//  2. with a cache advisor installed, the file whose cursor segment is
//     warmest wins a priority tie;
//  3. remaining ties rotate round-robin, so no file starves.
//
// Within a file's queue, full S^3 semantics apply: every active job on
// that file shares every scheduled segment scan.
type MultiFile struct {
	*scheduler.Multi[*S3]
	// cachedBytes, when set, reports how many bytes of a candidate
	// segment's blocks are already cached (see SetCacheAdvisor).
	cachedBytes func(blocks []dfs.BlockID) int64
	// hinter is remembered so files registered mid-run (AddPlan) hint
	// the same cache as the construction-time plans.
	hinter ScanHinter
}

var _ scheduler.Recoverable = (*MultiFile)(nil)

// NewMultiFile builds a multi-file scheduler over the given segment
// plans (one per file). log may be nil and is shared by all queues.
// AddPlan's expectJobs is advisory: S^3 admits jobs continuously.
func NewMultiFile(plans []*dfs.SegmentPlan, log *trace.Log) (*MultiFile, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("core: MultiFile needs at least one segment plan")
	}
	m := &MultiFile{}
	m.Multi = scheduler.NewMulti("s3-multifile", func(p *dfs.SegmentPlan, _ int) (*S3, error) {
		q := New(p, log)
		if m.hinter != nil {
			q.SetScanHinter(m.hinter)
		}
		return q, nil
	}, m.rank)
	for _, p := range plans {
		if err := m.AddPlan(p, 0); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// rank scores a queue for the next pick: its highest waiting priority,
// then (with a cache advisor installed) the cached bytes of its cursor
// segment — the exact blocks its NextRound would schedule.
func (m *MultiFile) rank(q *S3) [2]int64 {
	active := q.Active()
	if len(active) == 0 {
		return [2]int64{} // idle; never picked, so never worth advising
	}
	prio := active[0].Meta.Priority
	for _, js := range active[1:] {
		prio = max(prio, js.Meta.Priority)
	}
	var cached int64
	if m.cachedBytes != nil {
		cached = m.cachedBytes(q.Plan().Blocks(q.Cursor()))
	}
	return [2]int64{int64(prio), cached}
}

// SetCacheAdvisor makes file arbitration cache-aware: when two files'
// candidate segments tie on job priority under the circular-scan rule,
// the one with the most cached bytes is served first, so a warm segment
// is scanned before the cache evicts it. advisor reports the cached
// byte count for a candidate segment's blocks. dfs.Store.CachedBytes
// and sim.Executor.CachedBytes both fit; dfs.Store.AdvisedBytes is the
// strictly stronger signal — it also counts bytes committed to
// in-flight prefetches of pinned segments, so a file whose readahead
// is mid-flight competes as if already warm instead of losing the tie
// and letting the prefetched bytes go cold. Within each file the
// cursor order and Algorithm 1 merge semantics are untouched — the
// advisor only arbitrates *between* files. Pass nil to restore pure
// round-robin tie-breaking.
func (m *MultiFile) SetCacheAdvisor(advisor func(blocks []dfs.BlockID) int64) {
	m.cachedBytes = advisor
}

// SetScanHinter forwards cache guidance from every file's queue to h:
// each queue hints independently as its own cursor advances, and the
// hints carry the file name, so one cache can track the pin windows of
// all registered files at once.
func (m *MultiFile) SetScanHinter(h ScanHinter) {
	m.hinter = h
	for _, name := range m.Files() {
		q, _ := m.Queue(name)
		q.SetScanHinter(h)
	}
}
