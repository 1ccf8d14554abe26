package seq

import (
	"bytes"
	"testing"
)

// The parsers must never panic on arbitrary input — they parse files
// users hand the pipeline — and must agree with their oracles
// (oracle_test.go) on every input.

func FuzzFastaReader(f *testing.F) {
	f.Add([]byte(">a desc\nACGT\nNNNN\n>b\nTT\n"))
	f.Add([]byte(""))
	f.Add([]byte(">"))
	f.Add([]byte("no header\nACGT"))
	f.Add([]byte(">x\n\n\n>y"))
	f.Add([]byte(">a b\r\nacgtRY\r\n\r\n>c\nA\r"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFastaParity(t, data)
		recs, err := NewFastaReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			return
		}
		for _, r := range recs {
			for _, b := range r.Seq {
				switch b {
				case 'A', 'C', 'G', 'T', 'N':
				default:
					t.Fatalf("unnormalised base %q in parsed record", b)
				}
			}
		}
	})
}

func FuzzFastqReader(f *testing.F) {
	f.Add([]byte("@a\nACGT\n+\nIIII\n"))
	f.Add([]byte("@a\nACGT\n+"))
	f.Add([]byte("@\n\n+\n\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte("@a\nA\n+\nI\n\r"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFastqParity(t, data)
		recs, err := NewFastqReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			return
		}
		for _, r := range recs {
			if len(r.Qual) != len(r.Seq) {
				t.Fatal("accepted record with mismatched quality length")
			}
		}
	})
}
