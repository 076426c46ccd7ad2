package mapreduce

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"s3sched/internal/dfs"
)

// sortCombine is the sort-based combine the per-key grouping replaced:
// sort the records by key then value, group, re-emit. It stays as the
// reference the grouping must match byte for byte.
func sortCombine(raw []KV, combiner Reducer) ([]KV, error) {
	sorted := slices.Clone(raw)
	sortKVs(sorted)
	var out []KV
	err := groupByKey(sorted, func(key string, values []string) error {
		return combiner.Reduce(key, values, func(kv KV) { out = append(out, kv) })
	})
	return out, err
}

// partition splits records into width per-partition slices, the
// reference for the map task's partition-as-you-emit.
func partition(kvs []KV, width int) [][]KV {
	out := make([][]KV, width)
	for _, kv := range kvs {
		p := partitionOf(kv.Key, width)
		out[p] = append(out[p], kv)
	}
	return out
}

// concatCombiner is order-sensitive: it joins a key's values in the
// order it receives them, so any change in key or value order shows.
// Keys with more than two values also emit an upper-cased copy, so the
// output is re-partitioned by the combiner's keys, not the mapper's.
var concatCombiner = ReducerFunc(func(key string, values []string, emit Emit) error {
	joined := strings.Join(values, "+")
	emit(KV{Key: key, Value: joined})
	if len(values) > 2 {
		emit(KV{Key: strings.ToUpper(key), Value: joined})
	}
	return nil
})

// recordMapper emits each whitespace-separated "key=value" token as a
// record, in block order, so a test controls duplicate keys and values
// exactly.
type recordMapper struct{}

func (recordMapper) Map(_ dfs.BlockID, data []byte, emit Emit) error {
	for _, tok := range strings.Fields(string(data)) {
		k, v, _ := strings.Cut(tok, "=")
		emit(KV{Key: k, Value: v})
	}
	return nil
}

func (recordMapper) CountInputRecords(data []byte) int64 {
	return int64(len(strings.Fields(string(data))))
}

// randomRecords draws n records over few keys and values, so both
// repeat heavily and arrive in no particular order.
func randomRecords(rng *rand.Rand, n int) []KV {
	keys := []string{"a", "b", "c", "dd", "e", "ab"}
	values := []string{"1", "2", "10", "x", "y", ""}
	out := make([]KV, n)
	for i := range out {
		out[i] = KV{Key: keys[rng.Intn(len(keys))], Value: values[rng.Intn(len(values))]}
	}
	return out
}

// recordBlock renders records as recordMapper input.
func recordBlock(kvs []KV) []byte {
	var b strings.Builder
	for _, kv := range kvs {
		fmt.Fprintf(&b, "%s=%s ", kv.Key, kv.Value)
	}
	return []byte(b.String())
}

func equalParts(a, b [][]KV) bool {
	return slices.EqualFunc(a, b, func(x, y []KV) bool { return slices.Equal(x, y) })
}

func TestCombineMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		raw := randomRecords(rng, rng.Intn(60))
		want, err := sortCombine(raw, concatCombiner)
		if err != nil {
			t.Fatal(err)
		}
		got, err := combine(slices.Clone(raw), concatCombiner)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: combine = %v, want %v", trial, got, want)
		}
	}
}

func TestMapTaskCombineMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width = 3
	for trial := 0; trial < 50; trial++ {
		raw := randomRecords(rng, 1+rng.Intn(60))
		combined, err := sortCombine(raw, concatCombiner)
		if err != nil {
			t.Fatal(err)
		}
		parts, counts, err := runMapTask(dfs.BlockID{File: "x"}, recordBlock(raw), recordMapper{}, concatCombiner, width)
		if err != nil {
			t.Fatal(err)
		}
		if want := partition(combined, width); !equalParts(parts, want) {
			t.Fatalf("trial %d: map task partitions = %v, want %v", trial, parts, want)
		}
		want := taskCounts{outputRecords: int64(len(raw)), outputBytes: kvBytes(raw),
			combineRecords: int64(len(combined)), combinerApplied: true}
		if counts != want {
			t.Fatalf("trial %d: counts = %+v, want %+v", trial, counts, want)
		}
	}
}

func TestCompactMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const width = 3
	for trial := 0; trial < 20; trial++ {
		job, err := NewRunning(JobSpec{Name: "c", File: "x", Mapper: recordMapper{}, NumReduce: width})
		if err != nil {
			t.Fatal(err)
		}
		// Two rounds of uncombined output, so each partition holds
		// duplicate keys and values from separate map tasks.
		first, second := randomRecords(rng, rng.Intn(40)), randomRecords(rng, rng.Intn(40))
		for _, raw := range [][]KV{first, second} {
			if err := job.addIntermediate(partition(raw, width)); err != nil {
				t.Fatal(err)
			}
		}
		all := partition(append(slices.Clone(first), second...), width)
		if err := job.Compact(concatCombiner); err != nil {
			t.Fatal(err)
		}
		got := job.DrainPartitions()
		for p := range all {
			want, err := sortCombine(all[p], concatCombiner)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got[p], want) {
				t.Fatalf("trial %d partition %d: compacted = %v, want %v", trial, p, got[p], want)
			}
		}
	}
}

// TestEngineMatchesWorkerMapTask checks that the engine's map task and
// the exported single-task path the distributed workers call produce
// the same partitions for a block, and that the engine charges the
// same counters the sort-based path did.
func TestEngineMatchesWorkerMapTask(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	raw := randomRecords(rng, 80)
	block := recordBlock(raw)
	cluster, _ := testCluster(t, 2, [][]byte{block})
	e := NewEngine(cluster)
	id := dfs.BlockID{File: "input", Index: 0}
	for _, combiner := range []Reducer{nil, concatCombiner} {
		spec := JobSpec{Name: "j", File: "input", Mapper: recordMapper{}, Combiner: combiner, NumReduce: 3}
		job, err := NewRunning(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.MapRound([]dfs.BlockID{id}, []*Running{job}); err != nil {
			t.Fatal(err)
		}
		engineParts := job.DrainPartitions()
		workerParts, err := MapBlockForJob(id, block, spec.Mapper, spec.Combiner, spec.NumReduce)
		if err != nil {
			t.Fatal(err)
		}
		if !equalParts(engineParts, workerParts) {
			t.Fatalf("combiner %v: engine partitions %v, worker partitions %v", combiner != nil, engineParts, workerParts)
		}
		want := map[string]int64{
			CounterMapTasks:         1,
			CounterMapInputBytes:    int64(len(block)),
			CounterMapInputRecords:  int64(len(raw)),
			CounterMapOutputRecords: int64(len(raw)),
			CounterMapOutputBytes:   kvBytes(raw),
		}
		if combiner != nil {
			combined, err := sortCombine(raw, combiner)
			if err != nil {
				t.Fatal(err)
			}
			want[CounterCombineOutRecords] = int64(len(combined))
		}
		for name, v := range want {
			if got := job.Counters.Get(name); got != v {
				t.Errorf("combiner %v: counter %s = %d, want %d", combiner != nil, name, got, v)
			}
		}
		if combiner == nil && job.Counters.Get(CounterCombineOutRecords) != 0 {
			t.Error("combine.output.records charged without a combiner")
		}
	}
}
