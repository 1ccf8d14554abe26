package chrysalis

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"gotrinity/internal/seq"
)

// The weld pool as it was while welds were strings and seq.Packed
// values: length-prefixed string frames, a pool per path that
// canonicalised, sorted and compacted the decoded welds, and an ASCII
// decode of the packed pool at the output. Kept as oracles: the weld
// values' frames must be these bytes, and their pool these welds.

func oraclePackWelds(welds []string) []byte {
	var buf []byte
	for _, w := range welds {
		buf = binary.AppendUvarint(buf, uint64(len(w)))
		buf = append(buf, w...)
	}
	return buf
}

func oracleUnpackWelds(buf []byte) []string {
	var out []string
	for len(buf) > 0 {
		l, n := binary.Uvarint(buf)
		if n <= 0 || l > uint64(len(buf)-n) {
			return out
		}
		out = append(out, string(buf[n:n+int(l)]))
		buf = buf[n+int(l):]
	}
	return out
}

func oracleEncodeWeldFrames(welds []seq.Packed) []string {
	out := make([]string, len(welds))
	for i := range welds {
		out[i] = string(welds[i].Encode())
	}
	return out
}

func oraclePoolWelds(parts [][]byte) []string {
	out := []string{}
	for _, p := range parts {
		for _, w := range oracleUnpackWelds(p) {
			if w == "" {
				continue
			}
			if rc := string(seq.ReverseComplement([]byte(w))); rc < w {
				w = rc
			}
			out = append(out, w)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func oraclePoolWeldsPacked(parts [][]byte) []seq.Packed {
	var pool []seq.Packed
	for _, p := range parts {
		for _, frame := range oracleUnpackWelds(p) {
			w, _, err := seq.DecodePacked([]byte(frame))
			if err != nil || w.Len() == 0 {
				continue
			}
			if rc := w.ReverseComplement(); rc.Compare(w) < 0 {
				w = rc
			}
			pool = append(pool, w)
		}
	}
	slices.SortFunc(pool, seq.Packed.Compare)
	return slices.CompactFunc(pool, seq.Packed.Equal)
}

func oracleDecodeWelds(welds []seq.Packed) []string {
	out := make([]string, len(welds))
	for i := range welds {
		out[i] = welds[i].String()
	}
	return out
}

// oraclePackedFrames is a chunk's frames on the packed path as the old
// encoders wrote them.
func oraclePackedFrames(welds []string) []byte {
	ps := make([]seq.Packed, len(welds))
	for i, w := range welds {
		ps[i] = seq.Pack([]byte(w))
	}
	return oraclePackWelds(oracleEncodeWeldFrames(ps))
}

// mustWelds converts ASCII windows of 2k ACGT bases to weld values.
func mustWelds(t testing.TB, ws []string, k int) []weld {
	t.Helper()
	out := make([]weld, len(ws))
	for i, s := range ws {
		w, ok := parseWeld([]byte(s), k, false)
		if !ok {
			t.Fatalf("%q is not a weld of k=%d", s, k)
		}
		out[i] = w
	}
	return out
}

// weldParts builds the pooling input of one trial: 2k random bases
// per weld, each weld sometimes followed by its reverse
// complement or a copy of an earlier weld, sometimes a reverse
// palindrome or a weld centred on a palindromic core, spread over
// parts of random size (some empty).
func weldParts(rng *rand.Rand, k, n int) (welds []string, cuts []int) {
	base := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return b
	}
	rc := func(s []byte) []byte { return seq.ReverseComplement(s) }
	for len(welds) < n {
		w := base(2 * k)
		switch rng.Intn(6) {
		case 0: // a reverse palindrome: the weld is its own RC
			copy(w[k:], rc(w[:k]))
		case 1: // a palindromic core (even k only: an odd k-mer never equals its RC)
			if flank := k / 2; k%2 == 0 {
				copy(w[flank+k/2:flank+k], rc(w[flank:flank+k/2]))
			}
		}
		welds = append(welds, string(w))
		switch rng.Intn(4) {
		case 0:
			welds = append(welds, string(rc(w)))
		case 1:
			welds = append(welds, welds[rng.Intn(len(welds))])
		}
	}
	for lo := 0; lo < len(welds); {
		lo = min(len(welds), lo+rng.Intn(8))
		cuts = append(cuts, lo)
	}
	return welds, cuts
}

// checkPoolMatchesOracle frames welds both ways, cut at cuts into
// parts (a cut that does not advance is an empty part), truncates the
// last part by trunc bytes, and requires the weld-value pool to equal
// both old pools.
func checkPoolMatchesOracle(t *testing.T, welds []string, cuts []int, k, trunc int) {
	t.Helper()
	var parts, packedParts [][]byte
	lo := 0
	for _, hi := range cuts {
		parts = append(parts, oraclePackWelds(welds[lo:hi]))
		packedParts = append(packedParts, oraclePackedFrames(welds[lo:hi]))
		lo = hi
	}
	if last := len(parts) - 1; last >= 0 {
		parts[last] = parts[last][:max(0, len(parts[last])-trunc)]
		packedParts[last] = packedParts[last][:max(0, len(packedParts[last])-trunc)]
	}
	want := oraclePoolWelds(parts)
	if got := weldStrings(poolWelds(parts, k, false), k); !slices.Equal(got, want) {
		t.Fatalf("k=%d ASCII frames: pool %q, oracle %q", k, got, want)
	}
	wantP := oracleDecodeWelds(oraclePoolWeldsPacked(packedParts))
	if got := weldStrings(poolWelds(packedParts, k, true), k); !slices.Equal(got, wantP) {
		t.Fatalf("k=%d packed frames: pool %q, oracle %q", k, got, wantP)
	}
}

// TestWeldPoolMatchesOracle pins the weld-value pool against both old
// pools: k odd and even, small and 31, reverse palindromes and
// palindromic cores, reverse-complement duplicates across parts, empty
// parts and a truncated frame tail.
func TestWeldPoolMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, k := range []int{1, 2, 3, 4, 7, 8, 15, 16, 17, 24, 25, 30, 31} {
		for trial := 0; trial < 20; trial++ {
			welds, cuts := weldParts(rng, k, 1+rng.Intn(40))
			checkPoolMatchesOracle(t, welds, cuts, k, rng.Intn(4))
		}
	}
	checkPoolMatchesOracle(t, nil, nil, 25, 0)
	checkPoolMatchesOracle(t, nil, []int{0, 0}, 25, 0)
}

// TestWeldFramesMatchOracle: a chunk's frames are byte for byte the old
// encoders' frames, on the ASCII and on the packed path, and parse back
// to the same welds.
func TestWeldFramesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for k := 1; k <= 31; k++ {
		ws, _ := weldParts(rng, k, 30)
		welds := mustWelds(t, ws, k)
		for _, packed := range []bool{false, true} {
			got := appendWeldFrames([]byte("head"), welds, k, packed)
			want := append([]byte("head"), oraclePackWelds(ws)...)
			if packed {
				want = append([]byte("head"), oraclePackedFrames(ws)...)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("k=%d packed=%v: frames\n%x\nwant\n%x", k, packed, got, want)
			}
			if back := appendWelds(nil, got[4:], k, packed); !slices.Equal(back, welds) {
				t.Fatalf("k=%d packed=%v: frames parse back to %v, want %v", k, packed, back, welds)
			}
		}
	}
	// A frame that is no 2k-base ACGT window — empty, short or holding
	// an N — is skipped, not pooled, on both paths.
	k := 4
	frames := []string{"ACGTACGT", "", "ACGTNCGT", "ACG", "TTTTTTTT"}
	enc := func(w string) string { return string(seq.Pack([]byte(w)).Encode()) }
	packedFrames := []string{enc("ACGTACGT"), "", enc("ACGTNCGT"), enc("ACG"), enc("TTTTTTTT")}
	want := []string{"ACGTACGT", "TTTTTTTT"}
	for packed, buf := range map[bool][]byte{false: oraclePackWelds(frames), true: oraclePackWelds(packedFrames)} {
		if got := weldStrings(appendWelds(nil, buf, k, packed), k); !slices.Equal(got, want) {
			t.Fatalf("packed=%v: parsed %q, want %q", packed, got, want)
		}
	}
}

// FuzzWeldPool drives both frame forms through the weld-value pool
// and the old pools with fuzzed welds, k, part cuts and truncation.
func FuzzWeldPool(f *testing.F) {
	f.Add([]byte("ACGTTGCAACGTTGCA"), uint8(4), uint8(3), uint8(0))
	f.Add([]byte("AAAACCCCGGGGTTTTAAAACCCC"), uint8(31), uint8(0), uint8(2))
	f.Add([]byte{}, uint8(1), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, kk, split, trunc uint8) {
		k := 1 + int(kk)%31
		var welds []string
		for i := 0; i+2*k <= len(data); i += 2 * k {
			w := make([]byte, 2*k)
			for j := range w {
				w[j] = "ACGT"[data[i+j]&3]
			}
			welds = append(welds, string(w))
			if data[i]&4 != 0 {
				welds = append(welds, string(seq.ReverseComplement(w)))
			}
		}
		var cuts []int
		for i, lo := 0, 0; lo < len(welds); i++ {
			adv := int(split>>(2*(i%4))) & 3 // 0 cuts an empty part
			if i%3 == 2 {
				adv = max(adv, 1)
			}
			lo = min(len(welds), lo+adv)
			cuts = append(cuts, lo)
		}
		checkPoolMatchesOracle(t, welds, cuts, k, int(trunc)%8)
	})
}
