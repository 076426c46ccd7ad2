package workload

import (
	"bytes"
	"fmt"
	"strconv"

	"s3sched/internal/dfs"
	"s3sched/internal/mapreduce"
)

// PatternCountMapper is the paper's modified wordcount mapper (§V-B):
// it counts only the words matching a user-specified pattern, so
// different patterns make distinct jobs over the same input. The
// pattern is a prefix match, the simplest selective filter.
//
// EmitFactor models the heavy workload (§V-B item 2): each matching
// word is emitted EmitFactor times, multiplying map output volume the
// way the paper's heavy jobs produce 10x map output.
type PatternCountMapper struct {
	Prefix     string
	EmitFactor int
}

var _ mapreduce.Mapper = PatternCountMapper{}
var _ mapreduce.InputRecordCounter = PatternCountMapper{}

// Map implements mapreduce.Mapper. Its cost scales with the words that
// match, not with the block: it hops between occurrences of the
// prefix's first byte, checks the prefix only at word starts, and
// allocates each distinct matching word once per call — repeated
// occurrences emit the same shared key string.
func (m PatternCountMapper) Map(_ dfs.BlockID, data []byte, emit mapreduce.Emit) error {
	factor := max(m.EmitFactor, 1)
	keys := make(map[string]string)
	match := func(w []byte) {
		k, ok := keys[string(w)]
		if !ok {
			k = string(w)
			keys[k] = k
		}
		for i := 0; i < factor; i++ {
			emit(mapreduce.KV{Key: k, Value: "1"})
		}
	}
	if m.Prefix == "" {
		forEachWord(data, match)
		return nil
	}
	first := m.Prefix[0]
	if wordSpace[first] != 0 {
		return nil // words never contain whitespace
	}
	for i := 0; i < len(data); {
		j := bytes.IndexByte(data[i:], first)
		if j < 0 {
			break
		}
		start := i + j
		i = start + 1
		if start > 0 && wordSpace[data[start-1]] == 0 {
			continue // mid-word occurrence
		}
		for i < len(data) && wordSpace[data[i]] == 0 {
			i++
		}
		if w := data[start:i]; len(w) >= len(m.Prefix) && string(w[:len(m.Prefix)]) == m.Prefix {
			match(w)
		}
	}
	return nil
}

// CountInputRecords implements mapreduce.InputRecordCounter: Hadoop's
// wordcount counts input words as records. It is one branch-free pass
// counting word starts (a word byte after whitespace or at offset 0).
func (m PatternCountMapper) CountInputRecords(data []byte) int64 {
	var n int64
	prev := uint8(1)
	for _, b := range data {
		s := wordSpace[b]
		n += int64(prev &^ s)
		prev = s
	}
	return n
}

// wordSpace marks the bytes that separate words (1) from word bytes
// (0); every other byte, non-ASCII included, belongs to a word.
var wordSpace = [256]uint8{' ': 1, '\n': 1, '\t': 1, '\r': 1}

// forEachWord walks whitespace-separated words. The word slices alias
// data; fn must copy what it keeps.
func forEachWord(data []byte, fn func(word []byte)) {
	start := -1
	for i, b := range data {
		if wordSpace[b] != 0 {
			if start >= 0 {
				fn(data[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		fn(data[start:])
	}
}

// SumReducer sums integer-valued counts per key — wordcount's reducer
// and combiner.
type SumReducer struct{}

// Reduce implements mapreduce.Reducer.
func (SumReducer) Reduce(key string, values []string, emit mapreduce.Emit) error {
	total := int64(0)
	for _, v := range values {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("workload: non-numeric count %q for word %q: %w", v, key, err)
		}
		total += n
	}
	emit(mapreduce.KV{Key: key, Value: strconv.FormatInt(total, 10)})
	return nil
}

// WordCountJob builds the spec for one pattern-counting wordcount job
// over file. numReduce follows the paper's configuration (30 on the
// full cluster); pass a small value for scaled-down runs.
func WordCountJob(name, file, prefix string, numReduce int) mapreduce.JobSpec {
	return mapreduce.JobSpec{
		Name:      name,
		File:      file,
		Mapper:    PatternCountMapper{Prefix: prefix},
		Reducer:   SumReducer{},
		Combiner:  SumReducer{},
		NumReduce: numReduce,
	}
}

// HeavyWordCountJob builds a heavy-workload job: emitFactor-times the
// map output and no combiner, so both shuffle and reduce output grow
// the way the paper's heavy workload does (10x map output, 200x reduce
// output).
func HeavyWordCountJob(name, file, prefix string, numReduce, emitFactor int) mapreduce.JobSpec {
	return mapreduce.JobSpec{
		Name:      name,
		File:      file,
		Mapper:    PatternCountMapper{Prefix: prefix, EmitFactor: emitFactor},
		Reducer:   SumReducer{},
		NumReduce: numReduce,
	}
}

// DistinctPrefixes returns n single-letter prefixes that all occur in
// the generated corpus, cycling through the most frequent initials, so
// n wordcount jobs have similar (non-empty) outputs — the paper
// selects jobs "within the same scale of workload".
func DistinctPrefixes(n int) []string {
	letters := []string{"t", "a", "w", "h", "m", "s", "b", "o", "f", "n", "l", "d", "c", "p", "u", "y"}
	out := make([]string, n)
	for i := range out {
		out[i] = letters[i%len(letters)]
	}
	return out
}
