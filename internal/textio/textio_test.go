package textio

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

func fields(s string) []string {
	var out []string
	for f, rest := NextField([]byte(s)); len(f) > 0; f, rest = NextField(rest) {
		out = append(out, string(f))
	}
	return out
}

// FuzzNextField: NextField splits exactly as strings.Fields does,
// Unicode spaces and invalid UTF-8 included.
func FuzzNextField(f *testing.F) {
	for _, s := range []string{"", " ", "a", " 1\t2 3 \r\n", "2 ACGTA", "2 A　", "2\xffA", "\u0085x\u0085", "\xe2\x80", "a\v\fb"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := fields(s), strings.Fields(s)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("NextField splits %q into %q, strings.Fields into %q", s, got, want)
		}
	})
}

func TestBlocks(t *testing.T) {
	var b Blocks[int]
	if b.Slice() != nil {
		t.Fatal("empty Blocks is not nil")
	}
	for _, n := range []int{1, 64, 65, 10000} {
		var b Blocks[int]
		for i := 0; i < n; i++ {
			b.Append(i)
		}
		s := b.Slice()
		if len(s) != n || cap(s) < n {
			t.Fatalf("n=%d: len %d", n, len(s))
		}
		for i, v := range s {
			if v != i {
				t.Fatalf("n=%d: s[%d] = %d", n, i, v)
			}
		}
	}
}

// TestMayHoldSpace checks the word test at every byte value in every
// position, beside neighbours that are and are not flagged.
func TestMayHoldSpace(t *testing.T) {
	for _, fill := range []byte{'!', 'A', 0x7f} {
		for b := 0; b < 256; b++ {
			for p := 0; p < 8; p++ {
				w := [8]byte{fill, fill, fill, fill, fill, fill, fill, fill}
				w[p] = byte(b)
				x := binary.LittleEndian.Uint64(w[:])
				if got, want := mayHoldSpace(x), b < '!' || b >= utf8.RuneSelf; got != want {
					t.Fatalf("byte %#x at %d among %q: %v, want %v", b, p, fill, got, want)
				}
			}
		}
	}
}
