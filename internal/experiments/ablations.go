package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"fastinvert/internal/btree"
	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
	"fastinvert/internal/gpuindexer"
	"fastinvert/internal/parser"
	"fastinvert/internal/pipesim"
	"fastinvert/internal/postings"
	"fastinvert/internal/stem"
	"fastinvert/internal/stopwords"
	"fastinvert/internal/trie"
)

// AblationResult is a generic two-arm comparison.
type AblationResult struct {
	Name     string
	Baseline string
	Variant  string
	BaseSec  float64
	VarSec   float64
}

// Speedup reports BaseSec/VarSec (variant speedup over baseline).
func (a AblationResult) Speedup() float64 {
	if a.VarSec == 0 {
		return 0
	}
	return a.BaseSec / a.VarSec
}

// FprintAblation renders one comparison. Both arms print to the
// nanosecond, so a modeled arm tens of microseconds long still gives
// back the row's speedup.
func FprintAblation(w io.Writer, a AblationResult) {
	fmt.Fprintf(w, "ABLATION %-14s %s=%.3fµs %s=%.3fµs speedup=%.2fx\n",
		a.Name, a.Baseline, a.BaseSec*1e6, a.Variant, a.VarSec*1e6, a.Speedup())
}

// AblationRegroup measures §III.C's claim that regrouping terms by
// trie collection before serial indexing yields a large speedup from
// temporal locality: the baseline inserts every document's terms in
// document order (trees touched in arbitrary order), the variant
// processes one collection's whole stream at a time.
func AblationRegroup(s Scale) (AblationResult, error) {
	res := AblationResult{Name: "regroup", Baseline: "doc-order", Variant: "regrouped"}
	src := ClueWebSource(s)
	p := parser.New(nil)

	// Parse everything up front (parsing cost excluded from both arms).
	type docGroups struct {
		doc    uint32
		groups map[int][][]byte // collection -> stripped terms of this doc
	}
	var stream []docGroups
	blk := parser.NewBlock(0) // regrouped arm input (whole batch)
	var nextDoc uint32
	for f := 0; f < src.NumFiles(); f++ {
		stored, compressed, err := src.ReadFile(f)
		if err != nil {
			return res, err
		}
		plain, err := corpus.Decompress(stored, compressed)
		if err != nil {
			return res, err
		}
		for _, doc := range corpus.SplitDocs(plain) {
			id := nextDoc
			nextDoc++
			one := parser.NewBlock(0)
			p.ParseDoc(id, doc, one)
			p.ParseDoc(id, doc, blk)
			dg := docGroups{doc: id, groups: map[int][][]byte{}}
			for gi, g := range one.Groups {
				g.ForEach(func(_ uint32, stripped []byte) error {
					dg.groups[gi] = append(dg.groups[gi], append([]byte(nil), stripped...))
					return nil
				})
			}
			stream = append(stream, dg)
		}
	}

	// Baseline: document order, trees touched interleaved.
	trees := map[int]*btree.Tree{}
	stores := map[int]*postings.Store{}
	t0 := time.Now()
	for _, dg := range stream {
		for gi, terms := range dg.groups {
			tr := trees[gi]
			if tr == nil {
				tr = btree.New()
				trees[gi] = tr
				stores[gi] = postings.NewStore()
			}
			for _, term := range terms {
				slot, _ := tr.Insert(term)
				if err := stores[gi].Add(slot, dg.doc); err != nil {
					return res, err
				}
			}
		}
	}
	res.BaseSec = time.Since(t0).Seconds()

	// Variant: regrouped streams, one collection at a time.
	trees2 := map[int]*btree.Tree{}
	stores2 := map[int]*postings.Store{}
	t0 = time.Now()
	for gi, g := range blk.Groups {
		tr := btree.New()
		st := postings.NewStore()
		trees2[gi] = tr
		stores2[gi] = st
		err := g.ForEach(func(doc uint32, stripped []byte) error {
			slot, _ := tr.Insert(stripped)
			return st.Add(slot, doc)
		})
		if err != nil {
			return res, err
		}
	}
	res.VarSec = time.Since(t0).Seconds()

	// Sanity: both arms built the same dictionaries.
	for gi, tr := range trees {
		if tr.Terms() != trees2[gi].Terms() {
			return res, fmt.Errorf("regroup ablation diverged in collection %d", gi)
		}
	}
	return res, nil
}

// AblationStringCache measures §III.B.2's node string caches where
// their effect is architectural: in the GPU cost model, a comparison
// the cache resolves in shared memory otherwise costs a scattered
// device-memory fetch of the key bytes. Both arms run the identical
// kernel on the same parsed stream; only the charged traffic differs.
// (On the host CPU at megabyte scale the caches are cost-neutral —
// the arena fits in L2 and there is no pointer-chase miss to avoid —
// so the host-side arms are not meaningful and are not reported.)
func AblationStringCache(s Scale) (AblationResult, error) {
	res := AblationResult{Name: "string-cache", Baseline: "no-cache", Variant: "cached"}
	src := ClueWebSource(s)
	p := parser.New(nil)
	blk := parser.NewBlock(0)
	var docBase uint32
	for f := 0; f < src.NumFiles(); f++ {
		stored, compressed, err := src.ReadFile(f)
		if err != nil {
			return res, err
		}
		plain, err := corpus.Decompress(stored, compressed)
		if err != nil {
			return res, err
		}
		for d, doc := range corpus.SplitDocs(plain) {
			p.ParseDoc(docBase+uint32(d), doc, blk)
		}
		docBase += uint32(1 << 16)
	}
	// Collection order fixes which block indexes which collection, and
	// so the list schedule and the arena layout: take it from the
	// collection index, not from map iteration.
	groups := make([]*parser.Group, 0, len(blk.Groups))
	for _, g := range blk.Groups {
		groups = append(groups, g)
	}
	slices.SortFunc(groups, func(a, b *parser.Group) int { return a.Index - b.Index })

	run := func(noCache bool) (float64, error) {
		g := gpu.TeslaC1060()
		g.DeviceMemBytes = 256 << 20
		dev, err := gpu.NewDevice(g)
		if err != nil {
			return 0, err
		}
		ix := gpuindexer.New(dev, gpuindexer.Config{NoStringCache: noCache})
		rs, err := ix.IndexRun(groups, 0)
		if err != nil {
			return 0, err
		}
		return rs.KernelSec, nil
	}
	var err error
	if res.BaseSec, err = run(true); err != nil {
		return res, err
	}
	if res.VarSec, err = run(false); err != nil {
		return res, err
	}
	return res, nil
}

// TrieHeightRow is one arm of the trie-height ablation (§III.B.1:
// "the height of three seems to work best").
type TrieHeightRow struct {
	Height      int
	Collections int     // distinct non-empty collections
	TopShare    float64 // token share of the largest collection
	IndexSec    float64 // serial insert time over per-collection trees
}

// AblationTrieHeight regroups the same token stream by prefix heights
// 1, 2 and 3 and measures serial indexing time and collection balance.
func AblationTrieHeight(s Scale) ([]TrieHeightRow, error) {
	src := ClueWebSource(s)
	p := parser.New(nil)
	// Materialize the stemmed, stop-filtered token stream.
	var terms [][]byte
	var docs []uint32
	var docBase uint32
	for f := 0; f < src.NumFiles(); f++ {
		stored, compressed, err := src.ReadFile(f)
		if err != nil {
			return nil, err
		}
		plain, err := corpus.Decompress(stored, compressed)
		if err != nil {
			return nil, err
		}
		for d, doc := range corpus.SplitDocs(plain) {
			blk := parser.NewBlock(0)
			p.ParseDoc(docBase+uint32(d), doc, blk)
			for gi, g := range blk.Groups {
				g.ForEach(func(dID uint32, stripped []byte) error {
					terms = append(terms, trie.Restore(gi, stripped))
					docs = append(docs, dID)
					return nil
				})
			}
		}
		docBase += 1 << 16 // keep doc ids distinct per file (ample)
	}

	var rows []TrieHeightRow
	for h := 1; h <= 3; h++ {
		groups := map[string][]int{} // prefix -> term indices
		for i, term := range terms {
			n := h
			if len(term) < n {
				n = len(term)
			}
			groups[string(term[:n])] = append(groups[string(term[:n])], i)
		}
		top := 0
		for _, g := range groups {
			if len(g) > top {
				top = len(g)
			}
		}
		t0 := time.Now()
		for _, idxs := range groups {
			tr := btree.New()
			st := postings.NewStore()
			for _, i := range idxs {
				key := terms[i]
				if len(key) > h {
					key = key[h:]
				} else {
					key = key[:0]
				}
				slot, _ := tr.Insert(key)
				st.Add(slot, docs[i]) //nolint:errcheck // docs unsorted across groups is fine here
			}
		}
		rows = append(rows, TrieHeightRow{
			Height:      h,
			Collections: len(groups),
			TopShare:    float64(top) / float64(len(terms)),
			IndexSec:    time.Since(t0).Seconds(),
		})
	}
	return rows, nil
}

// FprintTrieHeight renders the trie-height ablation.
func FprintTrieHeight(w io.Writer, rows []TrieHeightRow) {
	fmt.Fprintln(w, "ABLATION trie-height (serial insert over per-collection trees)")
	fmt.Fprintf(w, "%8s %12s %10s %10s\n", "height", "collections", "top-share", "sec")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12d %10.3f %10.4f\n", r.Height, r.Collections, r.TopShare, r.IndexSec)
	}
}

// AblationCoalescing compares simulated GPU time for coalesced
// 512-byte node loads against per-word scattered reads of the same
// data (§III.D.2's key optimization).
func AblationCoalescing() (AblationResult, error) {
	res := AblationResult{Name: "coalescing", Baseline: "scattered", Variant: "coalesced"}
	cfg := gpu.TeslaC1060()
	cfg.DeviceMemBytes = 64 << 20
	dev, err := gpu.NewDevice(cfg)
	if err != nil {
		return res, err
	}
	const nodes = 4096
	p := dev.Malloc(nodes * btree.NodeSize)
	scratch := make([]byte, btree.NodeSize)
	sc := dev.Launch(480, func(b *gpu.Block) {
		for i := b.BlockIdx; i < nodes; i += 480 {
			b.GlobalReadScattered(scratch, p+gpu.Ptr(i*btree.NodeSize))
		}
	})
	co := dev.Launch(480, func(b *gpu.Block) {
		for i := b.BlockIdx; i < nodes; i += 480 {
			b.LoadShared(0, p+gpu.Ptr(i*btree.NodeSize), btree.NodeSize)
		}
	})
	res.BaseSec = sc.SimSeconds
	res.VarSec = co.SimSeconds
	return res, nil
}

// AblationSplit compares the popularity-based CPU/GPU split against a
// random split of equal popular-set size (§III.E).
func AblationSplit(s Scale) (AblationResult, error) {
	res := AblationResult{Name: "cpu-gpu-split", Baseline: "random-split", Variant: "popular-split"}
	src := ClueWebSource(s)
	cfg := EngineConfig(6, 2, 2)
	cfg.RandomSplit = true
	cfg.RandomSplitSeed = 7
	eng, err := core.New(cfg)
	if err != nil {
		return res, err
	}
	rep, err := eng.Build(src)
	if err != nil {
		return res, err
	}
	res.BaseSec = rep.IndexersSpanSec

	cfg.RandomSplit = false
	eng, err = core.New(cfg)
	if err != nil {
		return res, err
	}
	rep, err = eng.Build(src)
	if err != nil {
		return res, err
	}
	res.VarSec = rep.IndexersSpanSec
	return res, nil
}

// DecompressRow is one arm of the read/decompress scheduling ablation
// (§IV.A): folding decompression into the serialized read (scheme 1)
// versus decompressing on the parser after the full transfer
// (scheme 2, the paper's choice).
type DecompressRow struct {
	Parsers    int
	Scheme1Sec float64
	Scheme2Sec float64
}

// AblationDecompress replays one measured ClueWeb run through pipesim
// under both schemes across parser counts. Scheme 1 overlaps ~half the
// decompression with the transfer but holds the (serialized) file
// access for the whole combined duration.
func AblationDecompress(s Scale) ([]DecompressRow, error) {
	src := ClueWebSource(s)
	eng, err := core.New(EngineConfig(1, 1, 0))
	if err != nil {
		return nil, err
	}
	rep, err := eng.ParseOnly(src)
	if err != nil {
		return nil, err
	}
	// Rebuild items from the schedule's inputs: ParseOnly used them
	// all; re-derive from the measured report by re-running pipesim.
	// The engine does not expose raw items, so reconstruct: measure a
	// fresh pass.
	_ = rep
	items, err := measureItems(src)
	if err != nil {
		return nil, err
	}
	var rows []DecompressRow
	for m := 1; m <= 7; m++ {
		s2 := pipesim.Simulate(pipesim.Config{Parsers: m, Indexers: 0}, items)
		folded := make([]pipesim.Item, len(items))
		for i, it := range items {
			folded[i] = it
			folded[i].ReadSec = it.ReadSec + 0.5*it.DecompressSec
			folded[i].DecompressSec = 0
		}
		s1 := pipesim.Simulate(pipesim.Config{Parsers: m, Indexers: 0}, folded)
		rows = append(rows, DecompressRow{
			Parsers:    m,
			Scheme1Sec: s1.MakespanSec,
			Scheme2Sec: s2.MakespanSec,
		})
	}
	return rows, nil
}

// measureItems measures read/decompress/parse durations per file with
// the standard disk model.
func measureItems(src corpus.Source) ([]pipesim.Item, error) {
	cfg := EngineConfig(1, 1, 0)
	p := parser.New(nil)
	var items []pipesim.Item
	for f := 0; f < src.NumFiles(); f++ {
		stored, compressed, err := src.ReadFile(f)
		if err != nil {
			return nil, err
		}
		it := pipesim.Item{
			ReadSec: cfg.DiskLatencySec + float64(len(stored))/cfg.DiskBytesPerSec,
		}
		t0 := time.Now()
		plain, err := corpus.Decompress(stored, compressed)
		if err != nil {
			return nil, err
		}
		if compressed {
			it.DecompressSec = time.Since(t0).Seconds()
		}
		t0 = time.Now()
		blk := parser.NewBlock(0)
		for d, doc := range corpus.SplitDocs(plain) {
			p.ParseDoc(uint32(d), doc, blk)
		}
		it.ParseSec = time.Since(t0).Seconds()
		items = append(items, it)
	}
	return items, nil
}

// FprintDecompress renders the scheme comparison.
func FprintDecompress(w io.Writer, rows []DecompressRow) {
	fmt.Fprintln(w, "ABLATION decompress scheduling (parse-only makespan, modeled seconds)")
	fmt.Fprintf(w, "%8s %14s %14s\n", "parsers", "scheme1(fold)", "scheme2(sep)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %14.4f %14.4f\n", r.Parsers, r.Scheme1Sec, r.Scheme2Sec)
	}
}

// Normalize is re-exported for ablation callers needing the pipeline's
// term normalization.
func Normalize(word string) string {
	b := []byte(word)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	if stopwords.Default().Contains(b) {
		return ""
	}
	return string(stem.Stem(b))
}
