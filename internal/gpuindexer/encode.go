package gpuindexer

import (
	"fmt"

	"fastinvert/internal/encoding"
	"fastinvert/internal/store"
)

// EncodeRun drains this indexer's per-run postings into rb as
// pre-encoded blobs: each list is compressed with the codec sel picks
// and handed to the builder bytes-first via AddEncodedList, instead of
// shipping raw postings for the builder to re-encode. This models the
// device encoding its own output before the DtoH copy — the host-side
// run writer touches compressed bytes only. Collections are visited in
// sorted order and slots sequentially, the exact order Engine.flushRun
// uses, and the codec choice is the same pure function of
// (n, first, last, positional), so the run file is byte-identical to
// the raw-postings path the CPU indexers take. Per-run postings are
// reset afterwards, as that drain does.
func (ix *Indexer) EncodeRun(sel encoding.Selector, rb *store.RunBuilder) error {
	for _, coll := range ix.Collections() {
		st := ix.stores[coll]
		for slot := 0; slot < st.NumSlots(); slot++ {
			l := st.List(int32(slot))
			n := len(l.DocIDs)
			if n == 0 {
				continue
			}
			positions := l.Positions
			if l.Positional() && positions == nil {
				positions = make([][]uint32, n)
			}
			codec := encoding.VarByteCodec
			if sel != nil {
				codec = sel(n, l.DocIDs[0], l.DocIDs[n-1], positions != nil)
			}
			blob, err := codec.Encode(ix.encBuf[:0], l.DocIDs, l.TFs, positions)
			if err != nil {
				return fmt.Errorf("gpuindexer: encode collection %d slot %d: %w", coll, slot, err)
			}
			ix.encBuf = blob[:0]
			flags := store.EncodedFlags(codec.ID(), positions != nil)
			if err := rb.AddEncodedList(coll, int32(slot), uint32(n), flags, blob); err != nil {
				return fmt.Errorf("gpuindexer: %w", err)
			}
			ix.stats.EncodedLists++
			ix.stats.EncodedBytes += int64(len(blob))
		}
	}
	ix.ResetRunPostings()
	return nil
}
