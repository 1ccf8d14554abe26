package kmer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gotrinity/internal/seq"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []string{"A", "ACGT", "TTTTTTTT", "GATTACA", "ACGTACGTACGTACGTACGTACGTACGTACG"}
	for _, s := range cases {
		m, ok := Encode([]byte(s), len(s))
		if !ok {
			t.Fatalf("Encode(%s) failed", s)
		}
		if got := m.Decode(len(s)); got != s {
			t.Errorf("Decode(Encode(%s)) = %s", s, got)
		}
	}
}

func TestEncodeRejects(t *testing.T) {
	if _, ok := Encode([]byte("ACGN"), 4); ok {
		t.Error("Encode accepted N")
	}
	if _, ok := Encode([]byte("ACG"), 4); ok {
		t.Error("Encode accepted short input")
	}
	if _, ok := Encode([]byte("ACGT"), 32); ok {
		t.Error("Encode accepted k > MaxK")
	}
	if _, ok := Encode([]byte("ACGT"), 0); ok {
		t.Error("Encode accepted k = 0")
	}
}

func TestLexOrderMatchesNumericOrder(t *testing.T) {
	a, _ := Encode([]byte("AACGT"), 5)
	b, _ := Encode([]byte("AACTT"), 5)
	c, _ := Encode([]byte("TACGT"), 5)
	if !(a < b && b < c) {
		t.Errorf("order violated: %v %v %v", a, b, c)
	}
}

func TestAppendPrependBase(t *testing.T) {
	m, _ := Encode([]byte("ACGT"), 4)
	m2 := m.AppendBase(2, 4) // shift in G -> CGTG
	if got := m2.Decode(4); got != "CGTG" {
		t.Errorf("AppendBase = %s, want CGTG", got)
	}
	m3 := m.PrependBase(3, 4) // prepend T -> TACG
	if got := m3.Decode(4); got != "TACG" {
		t.Errorf("PrependBase = %s, want TACG", got)
	}
}

func TestPrefixSuffixBases(t *testing.T) {
	m, _ := Encode([]byte("GATTA"), 5)
	if got := m.Suffix(5).Decode(4); got != "ATTA" {
		t.Errorf("Suffix = %s", got)
	}
	if got := m.Prefix(5).Decode(4); got != "GATT" {
		t.Errorf("Prefix = %s", got)
	}
	if m.FirstBase(5) != 2 { // G
		t.Errorf("FirstBase = %d", m.FirstBase(5))
	}
	if m.LastBase() != 0 { // A
		t.Errorf("LastBase = %d", m.LastBase())
	}
}

func TestReverseComplementMatchesSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(MaxK)
		s := make([]byte, k)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		m, _ := Encode(s, k)
		want := string(seq.ReverseComplement(s))
		if got := m.ReverseComplement(k).Decode(k); got != want {
			t.Fatalf("rc(%s) = %s, want %s", s, got, want)
		}
	}
}

// TestReverseComplementMatchesPerBaseLoop pins the O(log w)
// bit-twiddling implementation against the per-base shift loop it
// replaced, for every k and random values.
func TestReverseComplementMatchesPerBaseLoop(t *testing.T) {
	loopRC := func(m Kmer, k int) Kmer {
		v := uint64(m)
		var r uint64
		for i := 0; i < k; i++ {
			r = r<<2 | (v & 3) ^ 3
			v >>= 2
		}
		return Kmer(r)
	}
	rng := rand.New(rand.NewSource(9))
	for k := 1; k <= MaxK; k++ {
		for trial := 0; trial < 100; trial++ {
			m := Kmer(rng.Uint64() & mask(k))
			if got, want := m.ReverseComplement(k), loopRC(m, k); got != want {
				t.Fatalf("k=%d: rc(%v) = %v, want %v", k, m, got, want)
			}
		}
	}
}

// Property: reverse complement is an involution for every k.
func TestReverseComplementInvolution(t *testing.T) {
	f := func(v uint64, kraw uint8) bool {
		k := int(kraw%MaxK) + 1
		m := Kmer(v & mask(k))
		return m.ReverseComplement(k).ReverseComplement(k) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the canonical form of a k-mer and of its reverse complement
// are identical.
func TestCanonicalInvariant(t *testing.T) {
	f := func(v uint64, kraw uint8) bool {
		k := int(kraw%MaxK) + 1
		m := Kmer(v & mask(k))
		c1, _ := m.Canonical(k)
		c2, _ := m.ReverseComplement(k).Canonical(k)
		return c1 == c2 && c1 <= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIteratorBasic(t *testing.T) {
	it := NewIterator([]byte("ACGTA"), 3)
	var got []string
	var positions []int
	for {
		m, pos, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, m.Decode(3))
		positions = append(positions, pos)
	}
	want := []string{"ACG", "CGT", "GTA"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] || positions[i] != i {
			t.Errorf("kmer %d = %s@%d, want %s@%d", i, got[i], positions[i], want[i], i)
		}
	}
}

func TestIteratorSkipsAmbiguous(t *testing.T) {
	it := NewIterator([]byte("ACGNACG"), 3)
	var got []string
	for {
		m, _, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, m.Decode(3))
	}
	if len(got) != 2 || got[0] != "ACG" || got[1] != "ACG" {
		t.Errorf("got %v, want [ACG ACG]", got)
	}
}

func TestIteratorShortInput(t *testing.T) {
	it := NewIterator([]byte("AC"), 3)
	if _, _, ok := it.Next(); ok {
		t.Error("iterator yielded k-mer from too-short input")
	}
}

// Property: the iterator yields exactly the k-mers obtained by naive
// substring encoding, and CountOf agrees.
func TestIteratorMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	alphabet := []byte("ACGTN")
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(8)
		n := rng.Intn(60)
		s := make([]byte, n)
		for i := range s {
			s[i] = alphabet[rng.Intn(len(alphabet))]
		}
		var want []Kmer
		for i := 0; i+k <= len(s); i++ {
			if m, ok := Encode(s[i:i+k], k); ok {
				want = append(want, m)
			}
		}
		var got []Kmer
		it := NewIterator(s, k)
		for {
			m, _, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, m)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d s=%s: %d vs %d kmers", k, s, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d s=%s: kmer %d differs", k, s, i)
			}
		}
		if c := CountOf(s, k); c != len(want) {
			t.Fatalf("CountOf=%d want %d", c, len(want))
		}
	}
}

func BenchmarkIterator(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	s := make([]byte, 10000)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		it := NewIterator(s, 25)
		for {
			_, _, ok := it.Next()
			if !ok {
				break
			}
		}
	}
}
