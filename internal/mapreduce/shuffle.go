package mapreduce

import (
	"slices"
	"strings"
)

// partitionOf returns the reduce partition for a key, matching
// Hadoop's default hash partitioner. The hash is FNV-1a over the key's
// bytes, computed inline so the per-record call allocates nothing.
func partitionOf(key string, width int) int {
	if width == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(width))
}

// combine applies a combiner to a batch of records (Running.Compact's
// partitions) through the same grouping map tasks use.
func combine(raw []KV, combiner Reducer) ([]KV, error) {
	var g keyGroups
	for _, kv := range raw {
		g.add(kv)
	}
	combined := make([]KV, 0, len(g.groups))
	err := g.combine(combiner, func(kv KV) { combined = append(combined, kv) })
	if err != nil {
		return nil, err
	}
	return combined, nil
}

// keyGroups folds records by key as they are emitted, so a combiner
// never needs the raw record list sorted. Each key keeps its values as
// runs of equal consecutive values; wordcount's stream of "1"s is one
// run per key.
type keyGroups struct {
	index  map[string]int
	groups []keyGroup
}

type keyGroup struct {
	key  string
	runs []valueRun
}

type valueRun struct {
	value string
	n     int
}

func (g *keyGroups) add(kv KV) {
	i, ok := g.index[kv.Key]
	if !ok {
		if g.index == nil {
			g.index = make(map[string]int)
		}
		i = len(g.groups)
		g.index[kv.Key] = i
		g.groups = append(g.groups, keyGroup{key: kv.Key})
	}
	grp := &g.groups[i]
	if r := len(grp.runs); r > 0 && grp.runs[r-1].value == kv.Value {
		grp.runs[r-1].n++
		return
	}
	grp.runs = append(grp.runs, valueRun{value: kv.Value, n: 1})
}

// combine runs combiner once per key in sorted key order, handing it
// the key's values sorted — exactly the input a sort of the raw records
// by key then value followed by groupByKey would give. The values slice
// is reused across keys; the combiner must not retain it.
func (g *keyGroups) combine(combiner Reducer, emit Emit) error {
	slices.SortFunc(g.groups, func(a, b keyGroup) int { return strings.Compare(a.key, b.key) })
	// Size the reused values slice for the largest group up front.
	most := 0
	for _, grp := range g.groups {
		n := 0
		for _, r := range grp.runs {
			n += r.n
		}
		most = max(most, n)
	}
	values := make([]string, 0, most)
	for i := range g.groups {
		grp := &g.groups[i]
		if len(grp.runs) > 1 {
			slices.SortFunc(grp.runs, func(a, b valueRun) int { return strings.Compare(a.value, b.value) })
		}
		values = values[:0]
		for _, r := range grp.runs {
			for k := 0; k < r.n; k++ {
				values = append(values, r.value)
			}
		}
		if err := combiner.Reduce(grp.key, values, emit); err != nil {
			return err
		}
	}
	return nil
}
