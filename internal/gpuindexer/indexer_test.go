package gpuindexer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fastinvert/internal/cpuindexer"
	"fastinvert/internal/gpu"
	"fastinvert/internal/parser"
	"fastinvert/internal/trie"
)

func testDevice() *gpu.Device {
	cfg := gpu.TeslaC1060()
	cfg.SMs = 4
	cfg.DeviceMemBytes = 64 << 20
	return gpu.MustDevice(cfg)
}

func parseBlock(t *testing.T, text string, docs int, seedDoc uint32) *parser.Block {
	t.Helper()
	p := parser.New(nil)
	blk := parser.NewBlock(0)
	for d := 0; d < docs; d++ {
		p.ParseDoc(seedDoc+uint32(d), []byte(text), blk)
	}
	if err := blk.Validate(); err != nil {
		t.Fatal(err)
	}
	return blk
}

func groupsOf(blk *parser.Block) []*parser.Group {
	out := make([]*parser.Group, 0, len(blk.Groups))
	for _, g := range blk.Groups {
		out = append(out, g)
	}
	return out
}

func TestGPUIndexRunBasic(t *testing.T) {
	ix := New(testDevice(), Config{})
	blk := parseBlock(t, "zebra zebra lion", 1, 0)
	rs, err := ix.IndexRun(groupsOf(blk), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Tokens != 3 || rs.NewTerms != 2 {
		t.Fatalf("stats = %+v", rs)
	}
	if rs.PreSec <= 0 || rs.KernelSec <= 0 || rs.PostSec <= 0 {
		t.Errorf("phase times must be positive: %+v", rs)
	}
	coll := trie.IndexString("zebra")
	store := ix.Store(coll)
	found := false
	ix.WalkDictionary(coll, func(stripped []byte, slot int32) bool {
		if string(stripped) == "ra" {
			l := store.List(slot)
			if l.Len() != 1 || l.DocIDs[0] != 1000 || l.TFs[0] != 2 {
				t.Errorf("zebra list = %v/%v", l.DocIDs, l.TFs)
			}
			found = true
		}
		return true
	})
	if !found {
		t.Error("zebra not in GPU dictionary")
	}
}

func TestGPUDuplicateCollectionRejected(t *testing.T) {
	ix := New(testDevice(), Config{})
	blk := parseBlock(t, "zebra", 1, 0)
	gs := groupsOf(blk)
	gs = append(gs, gs[0])
	if _, err := ix.IndexRun(gs, 0); err == nil {
		t.Error("duplicate collection must error")
	}
}

// synthText builds deterministic multi-collection text with heavy
// duplicate terms to force splits, cache ties, and empty strips.
func synthText(rng *rand.Rand, words int) string {
	var sb strings.Builder
	for i := 0; i < words; i++ {
		switch rng.Intn(10) {
		case 0:
			fmt.Fprintf(&sb, "%d ", rng.Intn(1000))
		case 1:
			sb.WriteString("z ") // strips to empty
		case 2:
			// shared long prefix, arena tie-breaking
			fmt.Fprintf(&sb, "prefixsharedlong%c ", 'a'+rng.Intn(4))
		default:
			n := 1 + rng.Intn(10)
			for j := 0; j < n; j++ {
				sb.WriteByte(byte('a' + rng.Intn(6)))
			}
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// TestCPUGPUEquivalence is the central property: for identical parsed
// runs, the GPU kernel and the CPU indexer must produce identical
// dictionaries (key -> slot) and identical postings lists.
func TestCPUGPUEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gpuIx := New(testDevice(), Config{})
	cpuIx := cpuindexer.New()

	docBase := uint32(0)
	for run := 0; run < 5; run++ {
		p := parser.New(nil)
		blk := parser.NewBlock(0)
		docs := 3 + rng.Intn(4)
		for d := 0; d < docs; d++ {
			p.ParseDoc(uint32(d), []byte(synthText(rng, 300)), blk)
		}
		gs := groupsOf(blk)
		if _, err := gpuIx.IndexRun(gs, docBase); err != nil {
			t.Fatalf("run %d gpu: %v", run, err)
		}
		if _, err := cpuIx.IndexRun(gs, docBase); err != nil {
			t.Fatalf("run %d cpu: %v", run, err)
		}
		docBase += uint32(docs)
	}

	cpuColls := cpuIx.Collections()
	gpuColls := gpuIx.Collections()
	if len(cpuColls) != len(gpuColls) {
		t.Fatalf("collection counts differ: %d vs %d", len(cpuColls), len(gpuColls))
	}
	for i := range cpuColls {
		if cpuColls[i] != gpuColls[i] {
			t.Fatalf("collection sets differ at %d: %d vs %d", i, cpuColls[i], gpuColls[i])
		}
	}
	for _, coll := range cpuColls {
		type entry struct {
			key  string
			slot int32
		}
		var ce, ge []entry
		cpuIx.WalkDictionary(coll, func(k []byte, s int32) bool {
			ce = append(ce, entry{string(k), s})
			return true
		})
		gpuIx.WalkDictionary(coll, func(k []byte, s int32) bool {
			ge = append(ge, entry{string(k), s})
			return true
		})
		if len(ce) != len(ge) {
			t.Fatalf("collection %d: %d vs %d terms", coll, len(ce), len(ge))
		}
		cs, gs := cpuIx.Store(coll), gpuIx.Store(coll)
		for i := range ce {
			if ce[i] != ge[i] {
				t.Fatalf("collection %d term %d: %+v vs %+v", coll, i, ce[i], ge[i])
			}
			cl, gl := cs.List(ce[i].slot), gs.List(ge[i].slot)
			if cl.Len() != gl.Len() {
				t.Fatalf("collection %d slot %d: postings %d vs %d",
					coll, ce[i].slot, cl.Len(), gl.Len())
			}
			for j := range cl.DocIDs {
				if cl.DocIDs[j] != gl.DocIDs[j] || cl.TFs[j] != gl.TFs[j] {
					t.Fatalf("collection %d slot %d posting %d: (%d,%d) vs (%d,%d)",
						coll, ce[i].slot, j,
						cl.DocIDs[j], cl.TFs[j], gl.DocIDs[j], gl.TFs[j])
				}
			}
		}
	}
}

func TestGPUManyRunsPostingsResetAndStats(t *testing.T) {
	ix := New(testDevice(), Config{})
	var wantTokens int64
	for run := 0; run < 3; run++ {
		blk := parseBlock(t, "alpha beta gamma delta", 2, 0)
		rs, err := ix.IndexRun(groupsOf(blk), uint32(run*2))
		if err != nil {
			t.Fatal(err)
		}
		wantTokens += rs.Tokens
		ix.ResetRunPostings()
	}
	st := ix.Stats()
	if st.Runs != 3 || st.Tokens != wantTokens {
		t.Errorf("stats = %+v, want 3 runs %d tokens", st, wantTokens)
	}
	if st.SimSec <= 0 {
		t.Error("simulated time missing")
	}
	// Dictionary persists: alpha et al. known, so no new terms now.
	blk := parseBlock(t, "alpha beta", 1, 0)
	rs, err := ix.IndexRun(groupsOf(blk), 100)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NewTerms != 0 {
		t.Errorf("NewTerms = %d after dictionary warm", rs.NewTerms)
	}
}

// TestNoStringCacheSameOutputHigherCost pins the string-cache
// ablation's contract: identical dictionaries and postings, strictly
// more charged device traffic.
func TestNoStringCacheSameOutputHigherCost(t *testing.T) {
	blk := parseBlock(t, strings.Repeat("prefixsharedalpha prefixsharedbeta gamma delta epsilon ", 30), 4, 0)
	gs := groupsOf(blk)

	run := func(noCache bool) (*Indexer, gpu.LaunchStats) {
		ix := New(testDevice(), Config{NoStringCache: noCache})
		rs, err := ix.IndexRun(gs, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ix, rs.Launch
	}
	cached, cachedStats := run(false)
	plain, plainStats := run(true)

	for _, coll := range cached.Collections() {
		var a, b []string
		cached.WalkDictionary(coll, func(k []byte, s int32) bool {
			a = append(a, fmt.Sprintf("%s/%d", k, s))
			return true
		})
		plain.WalkDictionary(coll, func(k []byte, s int32) bool {
			b = append(b, fmt.Sprintf("%s/%d", k, s))
			return true
		})
		if len(a) != len(b) {
			t.Fatalf("collection %d: %d vs %d terms", coll, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("collection %d entry %d: %s vs %s", coll, i, a[i], b[i])
			}
		}
	}
	if plainStats.GlobalTxns <= cachedStats.GlobalTxns {
		t.Errorf("no-cache txns (%d) not above cached (%d)",
			plainStats.GlobalTxns, cachedStats.GlobalTxns)
	}
	if plainStats.MaxSMCycles <= cachedStats.MaxSMCycles {
		t.Errorf("no-cache cycles (%d) not above cached (%d)",
			plainStats.MaxSMCycles, cachedStats.MaxSMCycles)
	}
}

func TestGPUCoalescingDominatesScattered(t *testing.T) {
	// The kernel's traffic should be mostly coalesced: scattered
	// transactions (arena tie-breaks) must be a small fraction of
	// total transactions on ordinary text.
	dev := testDevice()
	ix := New(dev, Config{})
	blk := parseBlock(t, strings.Repeat("document indexing throughput on heterogeneous platforms ", 40), 5, 0)
	if _, err := ix.IndexRun(groupsOf(blk), 0); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.GlobalTxns == 0 || st.GlobalBytes == 0 {
		t.Fatal("no device traffic recorded")
	}
	// 512 B node loads/stores are 8 txns each; scattered arena reads
	// (1 byte per transaction) must not dominate the mix.
	avg := float64(st.GlobalBytes) / float64(st.GlobalTxns)
	if avg < 8 {
		t.Errorf("avg bytes/transaction %.1f: traffic mostly scattered", avg)
	}
}

// TestDivergenceTracked checks that cache ties (shared long prefixes)
// register as warp divergence while distinct short terms do not.
func TestDivergenceTracked(t *testing.T) {
	dev := testDevice()
	ix := New(dev, Config{})
	// Heavy shared 4-byte-prefix collisions after trie stripping:
	// all in one collection with identical cache bytes.
	blk := parseBlock(t, strings.Repeat(
		"prefixsharedalpha prefixsharedbeta prefixsharedgamma ", 20), 2, 0)
	if _, err := ix.IndexRun(groupsOf(blk), 0); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().DivergentLanes == 0 {
		t.Error("shared-prefix workload should record divergence")
	}

	dev2 := testDevice()
	ix2 := New(dev2, Config{})
	blk2 := parseBlock(t, "cat dog bird fish lion wolf bear deer", 1, 0)
	if _, err := ix2.IndexRun(groupsOf(blk2), 0); err != nil {
		t.Fatal(err)
	}
	if d := dev2.Stats().DivergentLanes; d > 4 {
		t.Errorf("distinct short terms recorded %d divergent lanes", d)
	}
}

func BenchmarkGPUIndexRun(b *testing.B) {
	dev := testDevice()
	ix := New(dev, Config{})
	p := parser.New(nil)
	blk := parser.NewBlock(0)
	rng := rand.New(rand.NewSource(9))
	for d := 0; d < 20; d++ {
		p.ParseDoc(uint32(d), []byte(synthText(rng, 500)), blk)
	}
	gs := groupsOf(blk)
	var bytes int64
	for _, g := range gs {
		bytes += int64(len(g.Stream))
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.IndexRun(gs, uint32(i*20)); err != nil {
			b.Fatal(err)
		}
		ix.ResetRunPostings()
	}
}
