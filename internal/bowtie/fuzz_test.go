package bowtie

import (
	"reflect"
	"strings"
	"testing"

	"gotrinity/internal/seq"
)

func FuzzReadSAM(f *testing.F) {
	f.Add("@HD\tVN:1.6\nr1\t0\tc1\t5\t42\t10M\t*\t0\t0\t*\t*\tNM:i:1\n")
	f.Add("r1\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\n")
	f.Add("broken\tline\n")
	f.Add("r1\t16\tc2\t3\t42\t+4M\t*\t0\t0\t*\t*\t\tNM:i:7\r\n")
	contigs := []seq.Record{{ID: "c1", Seq: make([]byte, 20)}, {ID: "c2", Seq: make([]byte, 8)}}
	f.Fuzz(func(t *testing.T, data string) {
		checkSAMParity(t, data, contigs)
		als, err := ReadSAM(strings.NewReader(data))
		if err != nil {
			return
		}
		for _, a := range als {
			if a.Pos < 0 {
				t.Fatal("negative position accepted")
			}
		}
	})
}

// FuzzAlignDegenerateReads drives both aligners with adversarial reads:
// empty reads, all-N reads (no valid seed k-mers), and reads shorter
// than the seed length must be rejected or aligned cleanly, never
// panic, and never report an out-of-range hit — and the packed aligner,
// the one the pipeline runs, must agree with the ASCII one. Inputs are
// normalised with seq.Upper as at ingest (the packed form has no other
// alphabet).
func FuzzAlignDegenerateReads(f *testing.F) {
	const contig = "ACGTACGTAGGCTTAGCCATGCACGTACGTAGGCTTAGCCATGC"
	f.Add(contig, "", uint8(16))
	f.Add(contig, "NNNNNNNNNNNNNNNNNNNN", uint8(16))
	f.Add(contig, "ACG", uint8(16)) // shorter than the seed
	f.Add(contig, "ACGTACGTAGGCTTAGCCATGC", uint8(8))
	f.Add(contig, "GCATGGCTAAGCCTACGTACGT", uint8(4))       // reverse strand, repeated seeds
	f.Add("ACGTACGTAGGCTTAG", "TACGTAGGCTTAGCCA", uint8(4)) // overhangs the contig end
	f.Fuzz(func(t *testing.T, ref, read string, seedLen uint8) {
		opt := Options{SeedLen: 4 + int(seedLen)%13, MaxMismatch: int(seedLen) % 3, Threads: 1}
		var contigs []seq.Record
		if ref != "" {
			contigs = []seq.Record{{ID: "c1", Seq: seq.Upper([]byte(ref))}}
		}
		reads := []seq.Record{{ID: "r1", Seq: seq.Upper([]byte(read))}}
		ix, err := NewIndex(contigs, opt)
		if err != nil {
			return
		}
		als, st := NewAligner(ix).AlignAll(reads)
		for _, a := range als {
			if a.Pos < 0 || a.Pos >= len(ref) {
				t.Fatalf("alignment position %d outside contig of %d bases", a.Pos, len(ref))
			}
			if a.Contig != 0 {
				t.Fatalf("alignment names contig %d of a 1-contig index", a.Contig)
			}
		}
		pix, err := NewPackedIndex(seq.PackRecords(contigs), opt)
		if err != nil {
			t.Fatal(err)
		}
		pals, pst := NewPackedAligner(pix).AlignAll(seq.PackRecords(reads))
		if !reflect.DeepEqual(pals, als) {
			t.Fatalf("packed %+v, ascii %+v", pals, als)
		}
		checkWork(t, "fuzz", pst, st)
		if pix.MemoryFootprint() != ix.MemoryFootprint() {
			t.Fatalf("footprint: packed %d, ascii %d", pix.MemoryFootprint(), ix.MemoryFootprint())
		}
	})
}
