package jellyfish

// The map implementation this package ran on until the k-mer spine
// moved to kmer.FlatSet ids and dense arrays, kept as the oracle the
// flat code is compared against: one Go map filled serially, entries
// ordered by sort.Slice, dump lines formatted by fmt, load lines split
// by strings.Fields. Counts saturate, as the flat counter's do.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

type mapTable struct {
	K int
	m map[kmer.Kmer]uint32
}

func (t *mapTable) add(m kmer.Kmer, delta uint32) {
	if sum := uint64(t.m[m]) + uint64(delta); sum > math.MaxUint32 {
		t.m[m] = math.MaxUint32
	} else {
		t.m[m] = uint32(sum)
	}
}

func mapCount(recs []seq.Record, opt Options) *mapTable {
	t := &mapTable{K: opt.K, m: map[kmer.Kmer]uint32{}}
	for _, r := range recs {
		it := kmer.NewIterator(r.Seq, opt.K)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			if opt.Canonical {
				m, _ = m.Canonical(opt.K)
			}
			t.add(m, 1)
		}
	}
	return t
}

func (t *mapTable) total() uint64 {
	var n uint64
	for _, c := range t.m {
		n += uint64(c)
	}
	return n
}

func (t *mapTable) entries(minCount int) []Entry {
	var out []Entry
	for m, c := range t.m {
		if int(c) >= minCount {
			out = append(out, Entry{m, c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kmer < out[j].Kmer })
	return out
}

func (t *mapTable) dump(w io.Writer, minCount int) error {
	entries := t.entries(minCount)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Kmer < entries[j].Kmer
	})
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, e := range entries {
		if _, err := fmt.Fprintf(bw, "%d\t%s\n", e.Count, e.Kmer.Decode(t.K)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func mapLoad(r io.Reader, k int) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []Entry
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("jellyfish: dump line %d: want 2 fields, got %d", lineno, len(fields))
		}
		c, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("jellyfish: dump line %d: bad count %q", lineno, fields[0])
		}
		if len(fields[1]) != k {
			return nil, fmt.Errorf("jellyfish: dump line %d: k-mer length %d, want %d", lineno, len(fields[1]), k)
		}
		m, ok := kmer.Encode([]byte(fields[1]), k)
		if !ok {
			return nil, fmt.Errorf("jellyfish: dump line %d: invalid k-mer %q", lineno, fields[1])
		}
		out = append(out, Entry{m, uint32(c)})
	}
	return out, sc.Err()
}
