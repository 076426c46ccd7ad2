// Package mapreduce is a from-scratch, in-process MapReduce framework:
// jobs made of map tasks over DFS blocks and reduce tasks over hash
// partitions, executed on a simulated cluster of nodes with bounded
// map slots. It is the execution substrate the paper's schedulers
// drive.
//
// The framework supports *merged* execution — one physical scan of a
// block feeding the mappers of several jobs — which is the mechanism
// both MRShare-style batching and S^3 sub-job batching rely on
// (paper §IV-D). Scan sharing is real here: a merged round issues one
// dfs.ReadBlock per block regardless of how many jobs consume it.
package mapreduce

import "sort"

// KV is one key/value record.
type KV struct {
	Key   string
	Value string
}

// Emit receives records produced by mappers, combiners and reducers.
// Emitted keys may be shared strings: a mapper may hand the same key
// string to many records (wordcount emits one string per distinct word
// per block). Strings are immutable, so receivers may keep them.
type Emit func(kv KV)

// sortKVs orders records by key, then value, for deterministic reduce
// input and deterministic job output.
func sortKVs(kvs []KV) {
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].Key != kvs[j].Key {
			return kvs[i].Key < kvs[j].Key
		}
		return kvs[i].Value < kvs[j].Value
	})
}

// groupByKey walks sorted records and invokes fn once per distinct key
// with all its values. The values slice is reused across calls; fn must
// not retain it.
func groupByKey(sorted []KV, fn func(key string, values []string) error) error {
	var values []string
	for i := 0; i < len(sorted); {
		key := sorted[i].Key
		values = values[:0]
		for i < len(sorted) && sorted[i].Key == key {
			values = append(values, sorted[i].Value)
			i++
		}
		if err := fn(key, values); err != nil {
			return err
		}
	}
	return nil
}
