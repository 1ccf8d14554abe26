package chrysalis

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gotrinity/internal/seq"
)

// Weld pooling canonicalises, sorts and compacts; these are the
// map-deduplicating implementations it replaced, kept as oracles.

func poolWeldsMapRef(parts [][]byte) []string {
	set := map[string]bool{}
	for _, p := range parts {
		for _, w := range unpackWelds(p) {
			if w == "" {
				continue
			}
			if rc := string(seq.ReverseComplement([]byte(w))); rc < w {
				w = rc
			}
			set[w] = true
		}
	}
	out := make([]string, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

func poolWeldsPackedMapRef(parts [][]byte) []seq.Packed {
	seen := map[string]bool{}
	var pool []seq.Packed
	for _, p := range parts {
		for _, frame := range unpackWelds(p) {
			w, _, err := seq.DecodePacked([]byte(frame))
			if err != nil || w.Len() == 0 {
				continue
			}
			if rc := w.ReverseComplement(); rc.Compare(w) < 0 {
				w = rc
			}
			key := string(w.AppendEncode(nil))
			if seen[key] {
				continue
			}
			seen[key] = true
			pool = append(pool, w)
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].Compare(pool[j]) < 0 })
	return pool
}

// TestPoolWeldsMatchesMapDedup pins both poolings against their map
// oracles, part split by part split: duplicates within and across
// parts, reverse-complement pairs, reverse palindromes (a weld equal to
// its own RC), welds with ambiguous bases, empty frames and a part
// whose last frame is truncated. The pooled order must be identical,
// and the packed pool must decode to the ASCII one.
func TestPoolWeldsMatchesMapDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	dna := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
			if rng.Intn(20) == 0 {
				b[i] = 'N'
			}
		}
		return string(b)
	}
	rc := func(w string) string { return string(seq.ReverseComplement([]byte(w))) }
	for trial := 0; trial < 30; trial++ {
		var welds []string
		for i := 0; i < 40; i++ {
			switch w := dna(10 + rng.Intn(20)); rng.Intn(6) {
			case 0: // reverse palindrome
				welds = append(welds, w+rc(w))
			case 1: // both orientations
				welds = append(welds, w, rc(w))
			case 2: // empty frame
				welds = append(welds, "")
			default:
				welds = append(welds, w)
			}
			if len(welds) > 1 && rng.Intn(4) == 0 { // duplicate an earlier weld
				welds = append(welds, welds[rng.Intn(len(welds))])
			}
		}
		var parts, packedParts [][]byte
		for lo := 0; lo < len(welds); {
			hi := min(len(welds), lo+1+rng.Intn(12))
			parts = append(parts, packWelds(welds[lo:hi]))
			packedParts = append(packedParts, packWelds(encodeWeldFramesFromASCII(welds[lo:hi])))
			lo = hi
		}
		if last := len(parts) - 1; len(parts[last]) > 3 {
			parts[last] = parts[last][:len(parts[last])-3]
			packedParts[last] = packedParts[last][:len(packedParts[last])-3]
		}
		got, want := poolWelds(parts), poolWeldsMapRef(parts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: poolWelds = %q, want %q", trial, got, want)
		}
		gotP, wantP := poolWeldsPacked(packedParts), poolWeldsPackedMapRef(packedParts)
		if len(gotP) != len(wantP) {
			t.Fatalf("trial %d: poolWeldsPacked has %d welds, want %d", trial, len(gotP), len(wantP))
		}
		for i := range wantP {
			if !gotP[i].Equal(wantP[i]) {
				t.Fatalf("trial %d: packed weld %d = %q, want %q", trial, i, gotP[i].Decode(), wantP[i].Decode())
			}
		}
		if full := poolWeldsPacked([][]byte{packWelds(encodeWeldFramesFromASCII(welds))}); len(full) > 0 {
			ascii := poolWelds([][]byte{packWelds(welds)})
			if !reflect.DeepEqual(decodeWelds(full), ascii) {
				t.Fatalf("trial %d: packed pool decodes to %q, ASCII pool is %q", trial, decodeWelds(full), ascii)
			}
		}
	}
}
