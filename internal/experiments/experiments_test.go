package experiments

import (
	"io"
	"strings"
	"testing"

	"fastinvert/internal/encoding"
)

// tinyScale keeps experiment tests fast.
//
// These tests assert only what is the same on every run: row counts,
// byte sizes, token/term splits, component sums, rendering, and modeled
// GPU time, which gpu.Launch takes from the device clock alone, so it
// is pinned exactly. Orderings between two host-measured timings live
// in the Benchmark* wrappers of the root bench_test.go (make
// microbench).
func tinyScale() Scale { return Scale{Files: 6, Factor: 0.5} }

func TestTableIIIShapes(t *testing.T) {
	rows, err := TableIII(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Documents <= 0 || r.Tokens <= 0 || r.Terms <= 0 {
			t.Errorf("%s: degenerate stats %+v", r.Name, r)
		}
		if r.Terms >= r.Tokens {
			t.Errorf("%s: terms >= tokens", r.Name)
		}
	}
	// ClueWeb-like is the compressed web crawl; Wikipedia-like is not
	// compressed (stored == plain).
	if rows[0].CompressedSize >= rows[0].UncompressedSize {
		t.Error("ClueWeb-like should compress")
	}
	if rows[1].CompressedSize != rows[1].UncompressedSize {
		t.Error("Wikipedia-like should be stored uncompressed")
	}
	var sb strings.Builder
	FprintTableIII(&sb, rows)
	if !strings.Contains(sb.String(), "TABLE III") {
		t.Error("rendering broken")
	}
}

// TestTableIVOrdering pins the cause of the paper's qualitative result
// (two CPU indexers beat one, adding the GPUs improves on two CPUs):
// every configuration indexes the same tokens, and the hybrid one
// leaves each side strictly less work than it has alone.
func TestTableIVOrdering(t *testing.T) {
	gpuOnly, oneCPU, twoCPU, hybrid, err := TableIVReports(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if gpuOnly.IndexingSec <= 0 {
		t.Error("GPU-only run missing")
	}
	if oneCPU.CPUTokens != twoCPU.CPUTokens || gpuOnly.GPUTokens != twoCPU.CPUTokens {
		t.Errorf("configurations indexed different token counts: 1 CPU %d, 2 CPU %d, GPU-only %d",
			oneCPU.CPUTokens, twoCPU.CPUTokens, gpuOnly.GPUTokens)
	}
	if hybrid.CPUTokens+hybrid.GPUTokens != twoCPU.CPUTokens {
		t.Errorf("hybrid split %d + %d does not add up to %d tokens",
			hybrid.CPUTokens, hybrid.GPUTokens, twoCPU.CPUTokens)
	}
	if hybrid.CPUTokens >= twoCPU.CPUTokens || hybrid.GPUTokens >= gpuOnly.GPUTokens {
		t.Errorf("hybrid did not offload either side: CPU %d of %d, GPU %d of %d",
			hybrid.CPUTokens, twoCPU.CPUTokens, hybrid.GPUTokens, gpuOnly.GPUTokens)
	}
	rows, err := TableIV(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("TableIV rows = %d", len(rows))
	}
	var sb strings.Builder
	FprintTableIV(&sb, rows)
	if !strings.Contains(sb.String(), "TABLE IV") {
		t.Error("rendering broken")
	}
}

// TestTableVShape pins Table V's qualitative split: the GPU tail holds
// far more distinct terms and characters than the CPU head.
func TestTableVShape(t *testing.T) {
	r, err := TableV(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.GPUTerms <= r.CPUTerms {
		t.Errorf("GPU terms %d <= CPU terms %d", r.GPUTerms, r.CPUTerms)
	}
	if r.CPUTokens == 0 || r.GPUTokens == 0 {
		t.Error("degenerate token split")
	}
	FprintTableV(io.Discard, r)
}

func TestTableVIRows(t *testing.T) {
	rows, err := TableVI(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TotalSec <= 0 || r.ThroughputMBps <= 0 {
			t.Errorf("%s: degenerate %+v", r.Name, r)
		}
		approxTotal := r.SamplingSec + r.IndexersSec + r.DictCombineSec + r.DictWriteSec
		if r.TotalSec < approxTotal*0.99 {
			t.Errorf("%s: total %.4f below component sum %.4f", r.Name, r.TotalSec, approxTotal)
		}
	}
	FprintTableVI(io.Discard, rows)
}

func TestFig10Shape(t *testing.T) {
	pts, err := Fig10(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.Parsers != i+1 || p.CPUOnly <= 0 || p.WithGPUs <= 0 || p.ParseOnly <= 0 {
			t.Errorf("point %d: degenerate %+v", i, p)
		}
	}
	FprintFig10(io.Discard, pts)
}

func TestFig11Shape(t *testing.T) {
	series, shiftAt, err := Fig11(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	n := len(series[0].Throughput)
	if n != tinyScale().Files+shiftAtFiles(tinyScale()) {
		t.Errorf("series length %d", n)
	}
	for _, s := range series {
		if len(s.Throughput) != n {
			t.Errorf("%s: ragged series", s.Name)
		}
		for i, v := range s.Throughput {
			if v <= 0 {
				t.Errorf("%s[%d] = %f", s.Name, i, v)
			}
		}
	}
	if shiftAt != tinyScale().Files {
		t.Errorf("shiftAt = %d", shiftAt)
	}
	FprintFig11(io.Discard, series, shiftAt)
}

func shiftAtFiles(s Scale) int {
	w := s.Files / 4
	if w < 1 {
		w = 1
	}
	return w
}

// TestFig12Shape pins the comparison's platforms (Table VII) and the
// per-core normalization that carries the paper's headline.
func TestFig12Shape(t *testing.T) {
	rows, err := Fig12(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, cores := range []int{8, 8, 198, 24} {
		r := rows[i]
		if r.Cores != cores || r.ThroughputMBps <= 0 || r.PerCoreMBps != r.ThroughputMBps/float64(cores) {
			t.Errorf("%s: want %d cores and per-core = total/cores, got %+v", r.Name, cores, r)
		}
	}
	FprintFig12(io.Discard, rows)
}

// TestAblationRegroupFaster runs both arms (AblationRegroup itself
// fails if they build different dictionaries); which is faster is
// BenchmarkAblationRegroup's to say.
func TestAblationRegroupFaster(t *testing.T) {
	a, err := AblationRegroup(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if a.BaseSec <= 0 || a.VarSec <= 0 {
		t.Errorf("missing timings: %+v", a)
	}
	FprintAblation(io.Discard, a)
}

// TestAblationStringCacheHelps pins both arms of the modeled
// string-cache ablation: kernel seconds on the device clock, a
// function of the corpus alone. Without the caches every warp
// comparison pays a scattered arena fetch.
func TestAblationStringCacheHelps(t *testing.T) {
	a, err := AblationStringCache(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if a.BaseSec != 0.006028832561728395 || a.VarSec != 0.0017894969135802468 {
		t.Errorf("modeled arms moved: no-cache %v s, cached %v s", a.BaseSec, a.VarSec)
	}
	if a.Speedup() < 1.5 {
		t.Errorf("string-cache speedup only %.2fx", a.Speedup())
	}
	FprintAblation(io.Discard, a)
}

// TestAblationCoalescing pins the modeled coalescing ablation: a
// scattered 512 B node read is 128 transactions, a coalesced one 8.
func TestAblationCoalescing(t *testing.T) {
	a, err := AblationCoalescing()
	if err != nil {
		t.Fatal(err)
	}
	if a.BaseSec != 0.00022970756172839506 || a.VarSec != 2.67445987654321e-05 {
		t.Errorf("modeled arms moved: scattered %v s, coalesced %v s", a.BaseSec, a.VarSec)
	}
	if a.Speedup() < 4 {
		t.Errorf("coalescing speedup only %.2fx", a.Speedup())
	}
	var out strings.Builder
	FprintAblation(&out, a)
	if want := "scattered=229.708µs coalesced=26.745µs speedup=8.59x"; !strings.Contains(out.String(), want) {
		t.Errorf("row %q lacks %q", out.String(), want)
	}
}

func TestAblationTrieHeight(t *testing.T) {
	rows, err := AblationTrieHeight(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More height -> more, smaller collections (monotone counts and
	// decreasing top-collection dominance).
	for i := 1; i < 3; i++ {
		if rows[i].Collections <= rows[i-1].Collections {
			t.Errorf("height %d collections %d not above height %d's %d",
				rows[i].Height, rows[i].Collections, rows[i-1].Height, rows[i-1].Collections)
		}
		if rows[i].TopShare > rows[i-1].TopShare {
			t.Errorf("top share grew with height: %.3f -> %.3f",
				rows[i-1].TopShare, rows[i].TopShare)
		}
	}
	FprintTrieHeight(io.Discard, rows)
}

func TestAblationDecompressShape(t *testing.T) {
	rows, err := AblationDecompress(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Parsers != i+1 || r.Scheme1Sec <= 0 || r.Scheme2Sec <= 0 {
			t.Errorf("row %d: degenerate %+v", i, r)
		}
	}
	FprintDecompress(io.Discard, rows)
}

func TestCompressionComparisonShape(t *testing.T) {
	rows, err := CompressionComparison(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != int(encoding.NumCodecs) {
		t.Fatalf("rows = %d, want one per registered codec (%d)", len(rows), encoding.NumCodecs)
	}
	byName := map[string]CompressionRow{}
	for _, r := range rows {
		byName[r.Codec] = r
		if r.BitsPerPosting <= 0 || r.EncodeMBps <= 0 || r.DecodeMBps <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Codec, r)
		}
	}
	// The textbook ordering on Zipf postings: bit-aligned codecs beat
	// byte-aligned varbyte on size.
	if byName["gamma"].BitsPerPosting >= byName["varbyte"].BitsPerPosting {
		t.Errorf("gamma (%.2f bits) not smaller than varbyte (%.2f bits)",
			byName["gamma"].BitsPerPosting, byName["varbyte"].BitsPerPosting)
	}
	if byName["golomb"].BitsPerPosting >= byName["varbyte"].BitsPerPosting {
		t.Errorf("golomb (%.2f bits) not smaller than varbyte (%.2f bits)",
			byName["golomb"].BitsPerPosting, byName["varbyte"].BitsPerPosting)
	}
	// The new codecs must earn their place: at least one of bitpack /
	// eliasfano beats varbyte on whole-collection bits/posting.
	if byName["bitpack"].BitsPerPosting >= byName["varbyte"].BitsPerPosting &&
		byName["eliasfano"].BitsPerPosting >= byName["varbyte"].BitsPerPosting {
		t.Errorf("neither bitpack (%.2f bits) nor eliasfano (%.2f bits) beats varbyte (%.2f bits)",
			byName["bitpack"].BitsPerPosting, byName["eliasfano"].BitsPerPosting,
			byName["varbyte"].BitsPerPosting)
	}
	FprintCompression(io.Discard, rows)
}

func TestExtGPUSweepShape(t *testing.T) {
	pts, err := ExtGPUSweep(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.GPUs != i || p.IndexingSec <= 0 || p.SpanSec <= 0 {
			t.Errorf("point %d: degenerate %+v", i, p)
		}
	}
	FprintGPUSweep(io.Discard, pts)
}

func TestExtDictionaryMemoryShape(t *testing.T) {
	rows, err := ExtDictionaryMemory(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	hybrid, naive, disk := rows[0].Bytes, rows[1].Bytes, rows[2].Bytes
	if hybrid <= 0 || naive <= 0 || disk <= 0 {
		t.Fatal("degenerate sizes")
	}
	// Front coding must crush both in-memory forms; the hybrid's
	// 512 B nodes trade some space for parallelism and cache lines,
	// so only sanity-bound it against naive.
	if disk >= naive || disk >= hybrid {
		t.Errorf("front-coded (%d) should be smallest (hybrid %d, naive %d)",
			disk, hybrid, naive)
	}
	if hybrid > naive*6 {
		t.Errorf("hybrid dictionary (%d) unreasonably larger than naive (%d)", hybrid, naive)
	}
	FprintDictMemory(io.Discard, rows)
}

func TestExtPositionalCostShape(t *testing.T) {
	rows, err := ExtPositionalCost(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	plain, positional := rows[0], rows[1]
	// Positions must grow the output; both arms must produce data.
	if positional.PostingsBytes <= plain.PostingsBytes {
		t.Errorf("positional output (%d) not larger than plain (%d)",
			positional.PostingsBytes, plain.PostingsBytes)
	}
	if plain.IndexingSec <= 0 || positional.IndexingSec <= 0 {
		t.Error("missing timings")
	}
	FprintPositionalCost(io.Discard, rows)
}

// TestExtTransferOverlapShape pins the transfer-overlap extension.
// With no CPU indexer, IndexingSec is PCIe copies plus modeled kernels,
// so every row is a function of the corpus alone. On a constrained bus
// overlap pays substantially, and the gain shrinks as bandwidth grows.
func TestExtTransferOverlapShape(t *testing.T) {
	rows, err := ExtTransferOverlap(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := []TransferOverlapRow{
		{PCIeGBps: 0.05, SerialSec: 0.007951296851851851, OverlapSec: 0.00617382},
		{PCIeGBps: 0.5, SerialSec: 0.0025028588518518514, OverlapSec: 0.002150148851851852},
		{PCIeGBps: 5.5, SerialSec: 0.0019525115791245793, OverlapSec: 0.001865901579124579},
	}
	for i, r := range rows {
		w := want[i]
		if r.PCIeGBps != w.PCIeGBps || r.SerialSec != w.SerialSec || r.OverlapSec != w.OverlapSec {
			t.Errorf("row %d moved: got %+v, want %+v", i, r, w)
		}
	}
	if rows[0].SpeedupPct < 10 {
		t.Errorf("constrained-bus overlap gain only %.1f%%", rows[0].SpeedupPct)
	}
	if rows[0].SpeedupPct <= rows[2].SpeedupPct {
		t.Errorf("gain should shrink with bandwidth: %.1f%% -> %.1f%%",
			rows[0].SpeedupPct, rows[2].SpeedupPct)
	}
	FprintTransferOverlap(io.Discard, rows)
}

func TestConcatSources(t *testing.T) {
	a := ClueWebSource(Scale{Files: 2, Factor: 0.5})
	b := WikipediaSource(Scale{Files: 3, Factor: 0.5})
	m := ConcatSources(a, b)
	if m.NumFiles() != 5 {
		t.Fatalf("NumFiles = %d", m.NumFiles())
	}
	if m.FileName(0) != a.FileName(0) || m.FileName(2) != b.FileName(0) {
		t.Error("file name routing broken")
	}
	if _, _, err := m.ReadFile(4); err != nil {
		t.Errorf("ReadFile(4): %v", err)
	}
	if _, _, err := m.ReadFile(5); err == nil {
		t.Error("out-of-range must fail")
	}
}
