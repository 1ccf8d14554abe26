package shard

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
)

// tableAnswer serves lookups from a shard store in the 8-byte-word row format
// the Round tests use.
func tableAnswer(store *kmer.Multimap[uint64]) func(kmer.Kmer, []byte) []byte {
	return func(m kmer.Kmer, dst []byte) []byte {
		for _, v := range store.Row(m) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			dst = append(dst, b[:]...)
		}
		return dst
	}
}

// TestAsyncRoundMatchesRound pipelines a deterministic tile sequence
// through Start/Wait with one tile of lookahead and checks every frame
// against the blocking Round serving the same queries — the
// byte-identity contract the overlap pipeline rests on.
func TestAsyncRoundMatchesRound(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 7} {
		table := map[kmer.Kmer]uint64{}
		for i := 0; i < 300; i++ {
			table[kmer.Kmer(i*11+5)] = uint64(i) * 7
		}
		const tiles = 5
		world := mpi.NewWorld(ranks)
		world.Run(func(c *mpi.Comm) {
			var keys []kmer.Kmer
			var vals []uint64
			for m, v := range table {
				if kmer.OwnerRank(m, ranks) == c.Rank() {
					keys = append(keys, m)
					vals = append(vals, v)
				}
			}
			store := newStore(keys, vals)
			// Tile t queries the keys congruent to t mod tiles, each routed
			// to its owner.
			tileQueries := make([][][]kmer.Kmer, tiles)
			for tt := 0; tt < tiles; tt++ {
				tileQueries[tt] = make([][]kmer.Kmer, ranks)
			}
			for m := range table {
				tt := int(uint64(m) % tiles)
				o := kmer.OwnerRank(m, ranks)
				tileQueries[tt][o] = append(tileQueries[tt][o], m)
			}
			// Drain the whole async pipeline first: a blocking Round must
			// not run while tiles are in flight (its collective receives
			// and the outstanding Irecv matchers would steal each other's
			// messages — the documented Recv/Irecv mixing hazard).
			ar := NewAsyncRound(c, 0x1000, tableAnswer(store))
			batches := make([]*Batch, tiles)
			for tt := range batches {
				batches[tt] = batchOf(tileQueries[tt])
			}
			ar.Start(0, batches[0])
			var wire int64
			for tt := 0; tt < tiles; tt++ {
				if tt+1 < tiles {
					ar.Start(tt+1, batches[tt+1])
				}
				stats, err := ar.Wait(tt)
				if err != nil {
					t.Errorf("ranks=%d rank=%d tile=%d: %v", ranks, c.Rank(), tt, err)
					return
				}
				wire += stats.BytesSent + stats.BytesRecv
			}
			for tt := 0; tt < tiles; tt++ {
				got := frames(batches[tt])
				want, err := roundFrames(c, tileQueries[tt], tableAnswer(store))
				if err != nil {
					t.Errorf("ranks=%d rank=%d tile=%d reference: %v", ranks, c.Rank(), tt, err)
					return
				}
				for d := range want {
					if len(got[d]) != len(want[d]) {
						t.Errorf("ranks=%d rank=%d tile=%d dst=%d: %d frames, want %d",
							ranks, c.Rank(), tt, d, len(got[d]), len(want[d]))
						continue
					}
					for i := range want[d] {
						if !bytes.Equal(got[d][i], want[d][i]) || (got[d][i] == nil) != (want[d][i] == nil) {
							t.Errorf("ranks=%d rank=%d tile=%d dst=%d frame=%d differs",
								ranks, c.Rank(), tt, d, i)
						}
					}
				}
			}
			if ranks > 1 && wire == 0 {
				t.Errorf("ranks=%d rank=%d: async round metered zero wire bytes", ranks, c.Rank())
			}
			if ranks == 1 && wire != 0 {
				t.Errorf("self-only async round metered %d wire bytes", wire)
			}
		})
	}
}

// TestAsyncRoundOwnerDeath kills an owner mid-pipeline: frames it owed
// must come back nil without hanging any Wait, frames from live owners
// must still arrive intact, and the failure must surface as a typed
// *FaultError — the contract the cleanup retry path consumes.
func TestAsyncRoundOwnerDeath(t *testing.T) {
	const ranks = 4
	const victim = 2
	plan := mpi.NewFaultPlan()
	plan.Add(mpi.Fault{Kind: mpi.FaultKill, Rank: victim, AtCall: 3})
	world := mpi.NewWorld(ranks)
	world.SetFaults(plan)
	world.SetRecvTimeout(2 * time.Second)
	table := map[kmer.Kmer]uint64{}
	for i := 0; i < 200; i++ {
		table[kmer.Kmer(i*13+1)] = uint64(i) + 9
	}
	world.RunE(func(c *mpi.Comm) error {
		var keys []kmer.Kmer
		var vals []uint64
		for m, v := range table {
			if kmer.OwnerRank(m, ranks) == c.Rank() {
				keys = append(keys, m)
				vals = append(vals, v)
			}
		}
		store := newStore(keys, vals)
		queries := make([][]kmer.Kmer, ranks)
		for m := range table {
			o := kmer.OwnerRank(m, ranks)
			queries[o] = append(queries[o], m)
		}
		ar := NewAsyncRound(c, 0x2000, tableAnswer(store))
		const tiles = 3
		sawFault := false
		for tt := 0; tt < tiles; tt++ {
			b := batchOf(queries)
			ar.Start(tt, b)
			_, err := ar.Wait(tt)
			got := frames(b)
			if err != nil {
				if _, ok := mpi.AsFault(err); !ok {
					t.Errorf("rank %d tile %d: non-fault error %v", c.Rank(), tt, err)
				}
				sawFault = true
			}
			for d := range got {
				for i, frame := range got[d] {
					if frame == nil {
						if d != victim {
							t.Errorf("rank %d tile %d: lost frame from live rank %d", c.Rank(), tt, d)
						}
						continue
					}
					m := queries[d][i]
					if len(frame) != 8 || binary.LittleEndian.Uint64(frame) != table[m] {
						t.Errorf("rank %d tile %d: bad frame for %v", c.Rank(), tt, m)
					}
				}
			}
		}
		if c.Rank() != victim && !sawFault {
			t.Errorf("rank %d: victim death never surfaced", c.Rank())
		}
		return nil
	})
}

// decodeBoth decodes blob into want frames with decodeInto (over a
// table holding stale frames, as a reused batch does) and with the
// decodeFrames oracle, and fails unless the two agree frame for frame —
// nil-ness included — and on whether the blob is rejected.
func decodeBoth(t *testing.T, blob []byte, want int) ([][]byte, error) {
	t.Helper()
	ref, refErr := decodeFrames(blob, want)
	got := make([][]byte, want)
	for i := range got {
		got[i] = []byte("stale")
	}
	err := decodeInto(blob, got)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decodeInto err = %v, decodeFrames err = %v", err, refErr)
	}
	for i := range ref {
		if (got[i] == nil) != (ref[i] == nil) || !bytes.Equal(got[i], ref[i]) {
			t.Fatalf("frame %d: decodeInto %q, decodeFrames %q", i, got[i], ref[i])
		}
	}
	return got, err
}

// TestDecodeFramesContract pins the explicit-error semantics of the
// reply decoder, checked against the decodeFrames oracle on every case:
// an empty blob is a lost segment (all-nil frames, no error); a
// non-empty blob must frame exactly want answers covering the whole
// payload.
func TestDecodeFramesContract(t *testing.T) {
	enc := func(frames ...[]byte) []byte {
		var b []byte
		for _, f := range frames {
			b = binary.AppendUvarint(b, uint64(len(f)))
			b = append(b, f...)
		}
		return b
	}
	if frames, err := decodeBoth(t, nil, 3); err != nil || len(frames) != 3 || frames[0] != nil {
		t.Errorf("empty blob: frames=%v err=%v, want 3 nils and no error", frames, err)
	}
	good := enc([]byte("ab"), nil, []byte("xyz"))
	frames, err := decodeBoth(t, good, 3)
	if err != nil || string(frames[0]) != "ab" || frames[1] == nil || len(frames[1]) != 0 || string(frames[2]) != "xyz" {
		t.Errorf("well-formed blob: frames=%q err=%v", frames, err)
	}
	if _, err := decodeBoth(t, good[:len(good)-1], 3); err == nil {
		t.Error("truncated blob: no error")
	}
	if _, err := decodeBoth(t, append(good, 0), 3); err == nil {
		t.Error("trailing bytes: no error")
	}
	if _, err := decodeBoth(t, []byte{0xff}, 1); err == nil {
		t.Error("dangling uvarint: no error")
	}
	huge := binary.AppendUvarint(nil, 1<<62)
	if _, err := decodeBoth(t, huge, 1); err == nil {
		t.Error("absurd frame length: no error")
	}
	if _, err := decodeBoth(t, []byte{0x81, 0x00}, 1); err == nil {
		t.Error("non-minimal length prefix: no error")
	}
}

// FuzzRoundCodec shakes the round wire formats against corrupted
// blobs: AppendKmers must reproduce every whole word it is given back,
// and the reply decoder must agree with the decodeFrames oracle, never
// panic, never silently truncate a non-empty blob (it either decodes
// exactly want whole-payload frames or errors), and re-encode
// losslessly when it accepts.
func FuzzRoundCodec(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 2, 'h', 'i'}, uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(1))
	seed := binary.AppendUvarint(nil, 4)
	seed = append(seed, 'a', 'b', 'c', 'd')
	f.Add(seed, uint8(1))
	f.Fuzz(func(t *testing.T, blob []byte, wantByte uint8) {
		// Kmer packing: decode-encode must reproduce the whole-word
		// prefix.
		ms := unpackKmers(blob)
		if re := AppendKmers(nil, ms); !bytes.Equal(re, blob[:len(ms)*8]) {
			t.Errorf("AppendKmers(unpackKmers(b)) != b[:8n]")
		}
		want := int(wantByte) % 64
		frames, err := decodeBoth(t, blob, want)
		if len(blob) == 0 {
			if err != nil {
				t.Fatalf("empty blob errored: %v", err)
			}
			return
		}
		if err != nil {
			return // rejected: corrupted input surfaced explicitly
		}
		// Accepted: re-framing the answers must reproduce the blob
		// exactly (no silent truncation, no trailing garbage), and every
		// frame must be non-nil (present).
		var re2 []byte
		for _, fr := range frames {
			if fr == nil {
				t.Fatal("accepted blob decoded a nil frame")
			}
			re2 = binary.AppendUvarint(re2, uint64(len(fr)))
			re2 = append(re2, fr...)
		}
		if !bytes.Equal(re2, blob) {
			t.Errorf("re-encoded frames differ from accepted blob")
		}
	})
}
