package sim

import (
	"container/list"
	"fmt"

	"s3sched/internal/dfs"
	"s3sched/internal/metrics"
)

// Cache model: the simulator's analogue of dfs.BlockCache. The real
// engine caches block *contents* per node; the simulator only needs to
// know, at pricing time, whether a block would have been warm — so it
// keeps a metadata-only LRU over block ids with a cluster-aggregate
// byte budget (per-node budget × nodes), and prices a warm block's scan
// at a configurable fraction of its disk cost. Warm blocks are memory
// reads: they skip the remote and cross-rack penalties (nothing crosses
// the network) and are not counted as physical scans, mirroring how the
// engine's cache hits bypass dfs.Store's scan counters.

// simCacheEntry is one warm block in the pricing LRU.
type simCacheEntry struct {
	block dfs.BlockID
	bytes int64
}

// simCache is the executor's warm-set state. It has two modes:
//
//   - aggregate (EnableCache): one cluster-wide metadata LRU — the
//     original model, kept bit-for-bit so existing baselines reprice
//     identically.
//   - policy twin (EnableCachePolicy): a dfs.MetaCache sharded by each
//     block's primary holder, running the *same* policy code as the
//     real BlockCache, so per-policy sim pricing tracks the engine's
//     hit sequence block-for-block (the differential tests assert
//     equality of the stat counters).
type simCache struct {
	budget  int64   // cluster-aggregate byte budget (aggregate mode)
	frac    float64 // cached scan cost as a fraction of disk cost
	entries map[dfs.BlockID]*list.Element
	lru     *list.List // front = most recently scanned
	bytes   int64
	stats   metrics.CacheStats

	// meta switches the cache into policy-twin mode; the aggregate
	// fields above are unused when it is set.
	meta *dfs.MetaCache
	// prefetchSec accumulates the scan time of readahead issued since
	// the last priced round; the next round charges whatever part of it
	// the previous round's reduce stage could not hide.
	prefetchSec float64
	// prevRedSec is the last priced round's reduce duration — the
	// overlap window the readahead runs under.
	prevRedSec float64
}

// EnableCache turns on cache-aware pricing: totalBytes of warm-set
// budget cluster-wide, with cached reads costing frac of the disk scan
// (frac 0 = free memory reads, 1 = no benefit). Call before the run.
func (e *Executor) EnableCache(totalBytes int64, frac float64) error {
	if totalBytes <= 0 {
		return fmt.Errorf("sim: cache budget must be positive, got %d bytes", totalBytes)
	}
	if frac < 0 || frac > 1 {
		return fmt.Errorf("sim: cached scan fraction %v outside [0,1]", frac)
	}
	e.cache = &simCache{
		budget:  totalBytes,
		frac:    frac,
		entries: make(map[dfs.BlockID]*list.Element),
		lru:     list.New(),
	}
	return nil
}

// EnableCachePolicy turns on policy-twin cache pricing: every node
// gets bytesPerNode of warm-set budget under the named eviction policy
// (dfs.Policies), with warm reads costing frac of the disk scan. The
// warm set is a dfs.MetaCache — the same shard/policy machinery the
// real BlockCache runs — sharded by each block's *primary* holder,
// matching how the engine attributes reads on an unreplicated store.
// Wire the scheduler's hints to HandleScanHint to drive the cursor
// policy's pinning and modelled prefetch. Call before the run.
func (e *Executor) EnableCachePolicy(bytesPerNode int64, frac float64, policy string) error {
	if frac < 0 || frac > 1 {
		return fmt.Errorf("sim: cached scan fraction %v outside [0,1]", frac)
	}
	meta, err := dfs.NewMetaCache(bytesPerNode, policy)
	if err != nil {
		return err
	}
	e.cache = &simCache{frac: frac, meta: meta}
	return nil
}

// HandleScanHint feeds one scheduler hint to the policy-twin cache (a
// no-op in aggregate mode): pins and demotions reach the policy, and —
// for the cursor policy on an unreplicated store, mirroring
// dfs.Store.HandleScanHint — the hinted blocks are prefetched onto
// their primary holders. Each issued prefetch is charged as a physical
// scan now, and its scan time accumulates into a readahead bill the
// next priced round pays net of the previous round's reduce overlap.
// The signature matches core.ScanHinter.
func (e *Executor) HandleScanHint(h dfs.ScanHint) {
	c := e.cache
	if c == nil || c.meta == nil {
		return
	}
	c.meta.Hint(h)
	if c.meta.Policy() != dfs.PolicyCursor || e.store.Replicas() != 1 {
		return
	}
	// One node's readahead runs serially; different nodes prefetch in
	// parallel. The wall-clock bill is the slowest node's share.
	perNodeMB := make(map[dfs.NodeID]float64)
	for _, b := range h.Prefetch {
		f, err := e.store.File(b.File)
		if err != nil {
			continue
		}
		locs := e.store.Locations(b)
		if len(locs) == 0 {
			continue
		}
		size := f.BlockLen(b.Index)
		if !c.meta.Prefetch(b, locs[0], size) {
			continue
		}
		e.stats.BlocksScanned++
		perNodeMB[locs[0]] += float64(size) / (1 << 20)
	}
	var slowest float64
	for _, mb := range perNodeMB {
		if sec := mb / e.model.ScanMBps; sec > slowest {
			slowest = sec
		}
	}
	c.prefetchSec += slowest
}

// CacheStats implements driver.CacheStatsSource.
func (e *Executor) CacheStats() metrics.CacheStats {
	if e.cache == nil {
		return metrics.CacheStats{}
	}
	if e.cache.meta != nil {
		cs := e.cache.meta.Stats()
		return metrics.CacheStats{
			Hits:           cs.Hits,
			Misses:         cs.Misses,
			Evictions:      cs.Evictions,
			Prefetches:     cs.Prefetches,
			PrefetchFailed: cs.PrefetchFailed,
			Bytes:          cs.Bytes,
			PinnedBytes:    cs.PinnedBytes,
		}
	}
	s := e.cache.stats
	s.Bytes = e.cache.bytes
	return s
}

// CachedBytes reports how many bytes of the given blocks are currently
// warm (0 with caching off). Wire it into core.MultiFile.SetCacheAdvisor
// to make the multi-file S^3 rank cache-aware.
func (e *Executor) CachedBytes(blocks []dfs.BlockID) int64 {
	if e.cache == nil {
		return 0
	}
	if e.cache.meta != nil {
		return e.cache.meta.CachedBytes(blocks)
	}
	var total int64
	for _, b := range blocks {
		if el, ok := e.cache.entries[b]; ok {
			total += el.Value.(*simCacheEntry).bytes
		}
	}
	return total
}

// cacheContains reports whether the block is warm without promoting it.
func (e *Executor) cacheContains(b dfs.BlockID) bool {
	if e.cache == nil {
		return false
	}
	if e.cache.meta != nil {
		return e.cache.meta.CachedBytes([]dfs.BlockID{b}) > 0
	}
	_, ok := e.cache.entries[b]
	return ok
}

// cacheAccess records one scan of block b of the given size and reports
// whether it was warm. A miss inserts the block and evicts LRU entries
// until the warm set fits the budget; blocks larger than the whole
// budget are never cached. Called only from price() on the driver's
// goroutine.
func (e *Executor) cacheAccess(b dfs.BlockID, size int64) bool {
	c := e.cache
	if c == nil {
		return false
	}
	if c.meta != nil {
		// Policy-twin mode: the access lands on the shard of the block's
		// primary holder, exactly where the engine's unreplicated demand
		// read is attributed.
		node := dfs.NodeID(-1)
		if locs := e.store.Locations(b); len(locs) > 0 {
			node = locs[0]
		}
		return c.meta.Access(b, node, size)
	}
	if el, ok := c.entries[b]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	if size > c.budget {
		return false
	}
	c.entries[b] = c.lru.PushFront(&simCacheEntry{block: b, bytes: size})
	c.bytes += size
	for c.bytes > c.budget {
		back := c.lru.Back()
		ent := back.Value.(*simCacheEntry)
		c.lru.Remove(back)
		delete(c.entries, ent.block)
		c.bytes -= ent.bytes
		c.stats.Evictions++
	}
	return false
}
