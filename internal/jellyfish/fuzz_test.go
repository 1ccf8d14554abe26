package jellyfish

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"gotrinity/internal/kmer"
)

func FuzzLoad(f *testing.F) {
	f.Add("3\tACGTA\n1\tTTTTT\n", 5)
	f.Add("x\tACGTA\n", 5)
	f.Add("", 5)
	f.Add("1\tACGN\n", 4)
	f.Add(" 2 ACGTA\u3000\r\n\n", 5)
	f.Add("2\xffACGTA\n", 5)
	f.Fuzz(func(t *testing.T, data string, k int) {
		if k < 1 || k > 31 {
			return
		}
		// Load agrees with the strings.Fields parser (mapLoad) it
		// replaced: the same entries, or the same error.
		entries, err := Load(strings.NewReader(data), k)
		want, wantErr := mapLoad(strings.NewReader(data), k)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(entries, want) {
			t.Fatalf("Load = %v, %v; mapLoad %v, %v", entries, err, want, wantErr)
		}
		if err != nil {
			return
		}
		for _, e := range entries {
			if len(e.Kmer.Decode(k)) != k {
				t.Fatal("entry with wrong k decoded")
			}
		}
	})
}

// FuzzCountTable drives the partitioned flat table and a Go map
// through the same Add stream — k-mers and deltas cut from the fuzz
// input, large deltas included so counts saturate — and requires the
// two to agree on every view.
func FuzzCountTable(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x01\xff\xff\xff\xff\x00\x00\x00\x01\x01"), uint8(5), uint8(3))
	f.Add([]byte("ACGTACGTACGTAAAAAAAAAAAAAAAAAAAA"), uint8(31), uint8(0))
	f.Add([]byte{}, uint8(1), uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, k, shards uint8) {
		if k < 1 || k > 31 {
			return
		}
		table := NewCountTable(int(k), int(shards))
		ref := &mapTable{K: int(k), m: map[kmer.Kmer]uint32{}}
		var entries []Entry
		for ; len(data) >= 5; data = data[5:] {
			m := kmer.Kmer(uint64(data[0])<<16|uint64(data[1])<<8|uint64(data[2])) & (1<<(2*uint(k)) - 1)
			delta := uint32(data[3])
			if data[4]&1 != 0 {
				delta = math.MaxUint32 - uint32(data[4])
			}
			table.Add(m, delta)
			ref.add(m, delta)
			entries = append(entries, Entry{m, delta})
		}
		rebuilt := FromEntries(int(k), entries)
		for name, tb := range map[string]*CountTable{"Add": table, "FromEntries": rebuilt} {
			if tb.Distinct() != len(ref.m) || tb.Total() != ref.total() {
				t.Fatalf("%s: distinct/total %d/%d, map %d/%d", name, tb.Distinct(), tb.Total(), len(ref.m), ref.total())
			}
			for _, min := range []int{0, 1, 2} {
				if !slices.Equal(tb.Entries(min), ref.entries(min)) {
					t.Fatalf("%s: Entries(%d) differ from the map's", name, min)
				}
			}
			frozen := tb.Freeze()
			for m, c := range ref.m {
				if tb.Get(m) != c || frozen.Get(m) != c {
					t.Fatalf("%s: Get(%v) = %d, frozen %d, map %d", name, m, tb.Get(m), frozen.Get(m), c)
				}
			}
			var got, want bytes.Buffer
			if err := errors.Join(Dump(&got, tb, 1), ref.dump(&want, 1)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: dump bytes differ from the map's", name)
			}
		}
	})
}

// failingReader yields data and then fails with errRead.
func failingReader(data string) io.Reader {
	return io.MultiReader(strings.NewReader(data), iotest.ErrReader(errRead))
}

var errRead = errors.New("read failed")

// TestLoadReportsReadErrors: a dump whose reader fails after whole
// lines is a failed read, not a short dump.
func TestLoadReportsReadErrors(t *testing.T) {
	if _, err := Load(failingReader("3\tACGTA\n1\tTTTTT\n"), 5); !errors.Is(err, errRead) {
		t.Errorf("Load: error %v, want %v", err, errRead)
	}
}
