package shard

// Frame tables built from a batch's answer offsets, for tests that
// compare answers owner by owner against the oracles.

// decodeInto decodes blob into a table of len(frames) frames through
// decodeAt, the production decoder: frames[i] is answer i, nil when it
// is lost.
func decodeInto(blob []byte, frames [][]byte) error {
	at := make([]int32, len(frames))
	err := decodeAt(blob, at)
	for i, o := range at {
		frames[i] = nil
		if o != lost {
			frames[i] = frameAt(blob, int(o))
		}
	}
	return err
}

// frames returns b's answers owner-major, parallel to b.Queries:
// frames(b)[d][j] answers b.Queries[d][j], nil while it is lost.
func frames(b *Batch) [][][]byte {
	out := make([][][]byte, len(b.Queries))
	for d := range out {
		out[d] = make([][]byte, len(b.Queries[d]))
		for j := range out[d] {
			p := b.split[d] + j
			switch o := b.at[p]; {
			case o == lost:
			case o < lost:
				out[d][j] = frameAt(b.late, int(-2-o))
			default:
				out[d][j] = frameAt(b.blobs[d], int(o))
			}
		}
	}
	return out
}
