package mapreduce

import (
	"fmt"

	"s3sched/internal/dfs"
)

// Single-task primitives, exported so other execution substrates
// (internal/remote's distributed workers) run exactly the same task
// logic as the in-process engine.

// MapBlockForJob executes one map task: run mapper over the block's
// data, apply the optional combiner, and split the output into width
// reduce partitions. It is the engine's own map-task path.
func MapBlockForJob(block dfs.BlockID, data []byte, mapper Mapper, combiner Reducer, width int) ([][]KV, error) {
	if mapper == nil {
		return nil, fmt.Errorf("mapreduce: MapBlockForJob needs a mapper")
	}
	if width <= 0 {
		return nil, fmt.Errorf("mapreduce: partition width must be positive, got %d", width)
	}
	parts, _, err := runMapTask(block, data, mapper, combiner, width)
	return parts, err
}

// runMapTask executes one map task without touching shared state:
// mapper, then the optional combiner, then the partitioner. Without a
// combiner each emitted record goes straight to its partition; with
// one, records fold into per-key groups as they are emitted and the
// combiner runs once per key, so the raw map output is never
// materialized. The returned counts cover output only; input
// accounting is the caller's.
func runMapTask(block dfs.BlockID, data []byte, mapper Mapper, combiner Reducer, width int) ([][]KV, taskCounts, error) {
	var (
		counts taskCounts
		groups keyGroups
	)
	parts := make([][]KV, width)
	toPartition := func(kv KV) {
		p := partitionOf(kv.Key, width)
		parts[p] = append(parts[p], kv)
	}
	err := mapper.Map(block, data, func(kv KV) {
		counts.outputRecords++
		counts.outputBytes += int64(len(kv.Key) + len(kv.Value))
		if combiner != nil {
			groups.add(kv)
		} else {
			toPartition(kv)
		}
	})
	if err != nil {
		return nil, taskCounts{}, err
	}
	if combiner != nil && counts.outputRecords > 0 {
		err := groups.combine(combiner, func(kv KV) {
			counts.combineRecords++
			toPartition(kv)
		})
		if err != nil {
			return nil, taskCounts{}, fmt.Errorf("combiner: %w", err)
		}
		counts.combinerApplied = true
	}
	return parts, counts, nil
}

// ReducePartition executes one reduce task: sort the partition's
// records, group by key, and reduce. A nil reducer yields the sorted
// records unchanged (map-only jobs).
func ReducePartition(records []KV, reducer Reducer) ([]KV, error) {
	sorted := make([]KV, len(records))
	copy(sorted, records)
	sortKVs(sorted)
	if reducer == nil {
		return sorted, nil
	}
	var out []KV
	err := groupByKey(sorted, func(key string, values []string) error {
		return reducer.Reduce(key, values, func(kv KV) { out = append(out, kv) })
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MergeSorted merges per-partition reduce outputs into one sorted
// result slice.
func MergeSorted(partitions [][]KV) []KV {
	var all []KV
	for _, p := range partitions {
		all = append(all, p...)
	}
	sortKVs(all)
	return all
}
