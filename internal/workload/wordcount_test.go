package workload

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

// refWords is the string-per-word tokenizer the selective scan
// replaced, kept as the differential oracle.
func refWords(data []byte) []string {
	var words []string
	start := -1
	for i, b := range data {
		isSpace := b == ' ' || b == '\n' || b == '\t' || b == '\r'
		if isSpace {
			if start >= 0 {
				words = append(words, string(data[start:i]))
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		words = append(words, string(data[start:]))
	}
	return words
}

// refPatternCount is the reference PatternCountMapper: tokenize every
// word, keep those with the prefix, emit each EmitFactor times.
func refPatternCount(m PatternCountMapper, data []byte) []mapreduce.KV {
	factor := max(m.EmitFactor, 1)
	var out []mapreduce.KV
	for _, w := range refWords(data) {
		if strings.HasPrefix(w, m.Prefix) {
			for i := 0; i < factor; i++ {
				out = append(out, mapreduce.KV{Key: w, Value: "1"})
			}
		}
	}
	return out
}

// checkAgainstReference requires Map and CountInputRecords to agree
// with the reference tokenizer on data.
func checkAgainstReference(t *testing.T, m PatternCountMapper, data []byte) {
	t.Helper()
	var got []mapreduce.KV
	if err := m.Map(dfs.BlockID{}, data, func(kv mapreduce.KV) { got = append(got, kv) }); err != nil {
		t.Fatal(err)
	}
	if want := refPatternCount(m, data); !slices.Equal(got, want) {
		t.Fatalf("Map(%q) with %+v = %v, want %v", data, m, got, want)
	}
	if got, want := m.CountInputRecords(data), int64(len(refWords(data))); got != want {
		t.Fatalf("CountInputRecords(%q) = %d, want %d", data, got, want)
	}
}

func FuzzPatternCountMapper(f *testing.F) {
	f.Add([]byte("the quick brown fox"), "t", int8(1))
	f.Add([]byte(""), "", int8(1))
	f.Add([]byte("\x00\xff\xfe"), "x", int8(1))
	f.Add([]byte("\t\t\r\n\r\nthe\t\ttea\r\r\nto\n\n"), "t", int8(1))
	f.Add([]byte("  the cat sat on the mat  \n"), "t", int8(0))
	f.Add([]byte("tot at tt attic tattoo t"), "t", int8(1))
	f.Add([]byte("the then than thin th"), "th", int8(2))
	f.Add([]byte("ab abc abd abcd"), "abc", int8(1))
	f.Add([]byte("a b  c\td"), "", int8(1))
	f.Add([]byte("to be or not to be"), "to", int8(3))
	f.Add([]byte(" a  b\t\tc "), " ", int8(1))
	f.Add([]byte("x\t\ty\r\nz"), "\ty", int8(1))
	f.Add([]byte("a\tb"), "a\t", int8(-2))
	f.Add([]byte("\xc3\xa9t\xc3\xa9 \xe2\x80\x94 t\xff \xc3\xa9"), "\xc3\xa9", int8(1))
	f.Fuzz(func(t *testing.T, data []byte, prefix string, factor int8) {
		checkAgainstReference(t, PatternCountMapper{Prefix: prefix, EmitFactor: int(factor) % 5}, data)
	})
}

// TestPatternCountMapperMatchesReference runs the differential check
// over generated corpus blocks for every prefix the benchmarks use.
func TestPatternCountMapperMatchesReference(t *testing.T) {
	g := NewTextGen(7)
	for i := 0; i < 4; i++ {
		block := g.Block(i, 16<<10)
		for _, prefix := range append(DistinctPrefixes(16), "", "th", "an", "zz") {
			checkAgainstReference(t, PatternCountMapper{Prefix: prefix, EmitFactor: 1 + i%3}, block)
		}
	}
}

// TestWordCountMapTaskAllocs guards the selective scan: one wordcount
// map task (map, input count, combine, partition) over a 128 KiB block
// allocates per distinct matching word, not per word scanned.
func TestWordCountMapTaskAllocs(t *testing.T) {
	block := NewTextGen(7).Block(0, 128<<10)
	spec := WordCountJob("wc", "corpus", "t", 2)
	counter := spec.Mapper.(mapreduce.InputRecordCounter)
	id := dfs.BlockID{File: "corpus"}

	words := 0
	distinct := map[string]bool{}
	forEachWord(block, func(w []byte) {
		words++
		if bytes.HasPrefix(w, []byte("t")) {
			distinct[string(w)] = true
		}
	})
	bound := 5*len(distinct) + 32
	if words < 10*bound {
		t.Fatalf("block has %d words, too few to tell per-word from per-key allocation (bound %d)", words, bound)
	}
	allocs := testing.AllocsPerRun(10, func() {
		counter.CountInputRecords(block)
		if _, err := mapreduce.MapBlockForJob(id, block, spec.Mapper, spec.Combiner, spec.NumReduce); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(bound) {
		t.Errorf("map task allocated %.0f times over %d words; want at most %d for %d distinct matching words",
			allocs, words, bound, len(distinct))
	}
	t.Logf("allocs %.0f, words %d, distinct matches %d", allocs, words, len(distinct))
}
