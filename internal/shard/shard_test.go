package shard

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
)

func TestOwners(t *testing.T) {
	cases := []struct {
		size int
		dead []int
		want []int
	}{
		{1, nil, []int{0}},
		{4, nil, []int{0, 1, 2, 3}},
		{4, []int{2}, []int{0, 1, 1, 3}}, // shard 2 -> alive[2%3]=alive[2]=3? see below
		{4, []int{0, 1, 2, 3}, []int{-1, -1, -1, -1}},
	}
	// Recompute the third case honestly: alive = {0,1,3}; shard 2 ->
	// alive[2%3] = alive[2] = 3.
	cases[2].want = []int{0, 1, 3, 3}
	for _, c := range cases {
		if got := Owners(c.size, c.dead); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Owners(%d, %v) = %v, want %v", c.size, c.dead, got, c.want)
		}
	}
	// Deterministic regardless of dead-list order or duplicates.
	a := Owners(8, []int{5, 2})
	b := Owners(8, []int{2, 5, 2})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Owners not order-invariant: %v vs %v", a, b)
	}
	for s, o := range a {
		if o == 2 || o == 5 {
			t.Errorf("shard %d assigned to dead rank %d", s, o)
		}
	}
}

// newStore builds a shard store: pairs with a repeated key accumulate
// into one row in input order.
func newStore(keys []kmer.Kmer, vals []uint64) *kmer.Multimap[uint64] {
	t := kmer.NewMultimap[uint64](len(keys), len(keys))
	for i, m := range keys {
		t.Add(m, vals[i])
	}
	t.Freeze()
	return t
}

func TestAppendKmersRoundtrip(t *testing.T) {
	ms := []kmer.Kmer{0, 1, 42, 1<<62 - 1}
	got := unpackKmers(AppendKmers(nil, ms))
	if !reflect.DeepEqual(got, ms) {
		t.Fatalf("roundtrip = %v, want %v", got, ms)
	}
	if len(AppendKmers(nil, nil)) != 0 {
		t.Fatal("AppendKmers(nil, nil) not empty")
	}
}

// TestRound runs a clean lookup round at several world sizes: each
// rank owns a shard of a shared table and every rank queries every
// key, so every frame must come back with the owner's row.
func TestRound(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 7} {
		table := map[kmer.Kmer]uint64{}
		for i := 0; i < 100; i++ {
			table[kmer.Kmer(i*i+1)] = uint64(i) * 3
		}
		world := mpi.NewWorld(ranks)
		world.Run(func(c *mpi.Comm) {
			// Owner shard: the keys this rank owns.
			var keys []kmer.Kmer
			var vals []uint64
			for m, v := range table {
				if kmer.OwnerRank(m, ranks) == c.Rank() {
					keys = append(keys, m)
					vals = append(vals, v)
				}
			}
			store := newStore(keys, vals)
			// Query every key, routed to its owner.
			queries := make([][]kmer.Kmer, ranks)
			for m := range table {
				o := kmer.OwnerRank(m, ranks)
				queries[o] = append(queries[o], m)
			}
			resps, err := roundFrames(c, queries, func(m kmer.Kmer, dst []byte) []byte {
				row := store.Row(m)
				for _, v := range row {
					dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
						byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
				}
				return dst
			})
			if err != nil {
				t.Errorf("ranks=%d rank=%d: Round error: %v", ranks, c.Rank(), err)
				return
			}
			for d, qs := range queries {
				for i, m := range qs {
					frame := resps[d][i]
					if frame == nil {
						t.Errorf("ranks=%d rank=%d: lost frame for %v", ranks, c.Rank(), m)
						continue
					}
					if len(frame) != 8 {
						t.Errorf("ranks=%d rank=%d: frame len %d", ranks, c.Rank(), len(frame))
						continue
					}
					var v uint64
					for b := 7; b >= 0; b-- {
						v = v<<8 | uint64(frame[b])
					}
					if v != table[m] {
						t.Errorf("ranks=%d rank=%d: %v -> %d, want %d", ranks, c.Rank(), m, v, table[m])
					}
				}
			}
		})
	}
}

// TestRoundOwnerDeath kills an owner rank before the round: frames
// addressed to it must come back nil (lost) while frames served by
// live owners still arrive, and re-routing the lost queries with a
// fresh Owners map must recover every answer — the retry contract the
// chrysalis sharded path is built on.
func TestRoundOwnerDeath(t *testing.T) {
	const ranks = 4
	const victim = 1
	plan, err := mpi.ParseFaultSpec("kill:rank=1,call=0")
	if err != nil {
		t.Fatal(err)
	}
	world := mpi.NewWorld(ranks)
	world.SetFaults(plan)
	world.SetRecvTimeout(2e9) // 2s: dropped segments must not hang the test
	table := map[kmer.Kmer]uint64{}
	for i := 0; i < 200; i++ {
		table[kmer.Kmer(i*7+3)] = uint64(i)
	}
	buildStore := func(rank int, owners []int) *kmer.Multimap[uint64] {
		var keys []kmer.Kmer
		var vals []uint64
		for m, v := range table {
			if owners[kmer.OwnerRank(m, ranks)] == rank {
				keys = append(keys, m)
				vals = append(vals, v)
			}
		}
		return newStore(keys, vals)
	}
	_, errs := world.RunE(func(c *mpi.Comm) error {
		if c.Rank() == victim {
			c.Probe() // fault point: dies here
		}
		answer := func(store *kmer.Multimap[uint64]) func(kmer.Kmer, []byte) []byte {
			return func(m kmer.Kmer, dst []byte) []byte {
				for _, v := range store.Row(m) {
					var b [8]byte
					for i := range b {
						b[i] = byte(v >> (8 * i))
					}
					dst = append(dst, b[:]...)
				}
				return dst
			}
		}
		owners := Owners(ranks, nil)
		store := buildStore(c.Rank(), owners)
		queries := make([][]kmer.Kmer, ranks)
		for m := range table {
			queries[kmer.OwnerRank(m, ranks)] = append(queries[kmer.OwnerRank(m, ranks)], m)
		}
		resps, rerr := roundFrames(c, queries, answer(store))
		if rerr == nil {
			return nil // the death may land after the round on slow schedules
		}
		answered := map[kmer.Kmer]bool{}
		for d := range queries {
			for i, m := range queries[d] {
				if resps[d][i] != nil {
					answered[m] = true
				}
			}
		}
		// Retry under an agreed owner map: the victim's shard re-routes
		// to a survivor, which rebuilds it from the shared source table.
		dead, derr := c.AgreeDead()
		if derr != nil {
			return derr
		}
		owners = Owners(ranks, dead)
		store = buildStore(c.Rank(), owners)
		retry := make([][]kmer.Kmer, ranks)
		for m := range table {
			if answered[m] {
				continue
			}
			o := owners[kmer.OwnerRank(m, ranks)]
			retry[o] = append(retry[o], m)
		}
		resps, rerr = roundFrames(c, retry, answer(store))
		if rerr != nil {
			if fe, ok := mpi.AsFault(rerr); ok && !fe.Evicted && !fe.Timeout {
				rerr = nil // stale death report; frames are what matter
			}
		}
		if rerr != nil {
			return rerr
		}
		for d := range retry {
			for i, m := range retry[d] {
				if resps[d][i] == nil {
					t.Errorf("rank %d: query %v lost even after reassignment", c.Rank(), m)
				}
			}
		}
		return nil
	})
	for r, err := range errs {
		if r == victim {
			if err == nil {
				t.Errorf("victim rank %d reported no error", r)
			}
			continue
		}
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestBatchRoute pins the counting-pass router against per-owner
// appends: each owner's sub-slice keeps the queries' order, Body(i)
// reads query i's answer from its owner-major position, and a reused
// batch starts every round with all answers lost whatever the last
// round left.
func TestBatchRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var b Batch
	for round, n := range []int{500, 0, 37, 1200, 5} {
		ranks := 1 + round%5
		queries := make([]kmer.Kmer, n)
		want := make([][]kmer.Kmer, ranks)
		for i := range queries {
			queries[i] = kmer.Kmer(rng.Uint64() >> 2)
			o := kmer.OwnerRank(queries[i], ranks)
			want[o] = append(want[o], queries[i])
		}
		b.Route(ranks, queries, func(m kmer.Kmer) int { return kmer.OwnerRank(m, ranks) })
		if len(b.Queries) != ranks {
			t.Fatalf("round %d: %d query sets, want %d", round, len(b.Queries), ranks)
		}
		if b.Lost() != n {
			t.Fatalf("round %d: %d of %d answers lost after Route", round, b.Lost(), n)
		}
		for d := range want {
			if len(want[d])+len(b.Queries[d]) > 0 && !reflect.DeepEqual(b.Queries[d], want[d]) {
				t.Fatalf("round %d: owner %d got %v, want %v", round, d, b.Queries[d], want[d])
			}
		}
		for i, m := range queries {
			if b.Body(i) != nil {
				t.Fatalf("round %d: body %d not nil after Route", round, i)
			}
			b.SetBody(i, binary.LittleEndian.AppendUint64(nil, uint64(m)))
		}
		for d, fs := range frames(&b) {
			for j, f := range fs {
				if binary.LittleEndian.Uint64(f) != uint64(b.Queries[d][j]) {
					t.Fatalf("round %d: owner %d frame %d answers %x, want %v", round, d, j, f, b.Queries[d][j])
				}
			}
		}
		for i, m := range queries {
			if got := b.Body(i); binary.LittleEndian.Uint64(got) != uint64(m) {
				t.Fatalf("round %d: Body(%d) answers %x, want %v", round, i, got, m)
			}
		}
		if b.Lost() != 0 {
			t.Fatalf("round %d: %d answers lost after SetBody", round, b.Lost())
		}
		if n > 0 {
			// Present and empty is not lost; nil marks it lost again.
			if b.SetBody(0, []byte{}); b.Body(0) == nil || len(b.Body(0)) != 0 || b.Lost() != 0 {
				t.Fatalf("round %d: empty answer reads %v, %d lost", round, b.Body(0), b.Lost())
			}
			if b.SetBody(0, nil); b.Body(0) != nil || b.Lost() != 1 {
				t.Fatalf("round %d: nil answer reads %v, %d lost", round, b.Body(0), b.Lost())
			}
		}
	}
}
