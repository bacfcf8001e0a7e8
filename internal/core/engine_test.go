package core

import (
	"path/filepath"
	"testing"

	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
	"fastinvert/internal/postings"
	"fastinvert/internal/reference"
	"fastinvert/internal/store"
)

func testSource(files int) *corpus.MemSource {
	p := corpus.ClueWeb09(1)
	p.VocabSize = 6000
	p.DocsPerFile = 10
	p.MeanDocTokens = 70
	return corpus.NewMemSource(corpus.NewGenerator(p), files)
}

func testConfig(parsers, cpus, gpus int) Config {
	cfg := DefaultConfig()
	cfg.Parsers = parsers
	cfg.CPUIndexers = cpus
	cfg.GPUs = gpus
	g := gpu.TeslaC1060()
	g.SMs = 4
	g.DeviceMemBytes = 64 << 20
	cfg.GPU = g
	cfg.Sampling.Ratio = 0.2
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(0, 1, 0)
	if _, err := New(cfg); err == nil {
		t.Error("zero parsers must fail")
	}
	cfg = testConfig(1, 0, 0)
	if _, err := New(cfg); err == nil {
		t.Error("zero indexers must fail")
	}
	cfg = testConfig(2, 1, 1)
	if _, err := New(cfg); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// indexFromDisk rebuilds term -> postings from the persisted index.
func indexFromDisk(t *testing.T, dir string) map[string]*postings.List {
	t.Helper()
	r, err := store.OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*postings.List, r.Terms())
	for _, e := range r.Dictionary() {
		l, err := r.Postings(e.Term)
		if err != nil {
			t.Fatalf("postings(%q): %v", e.Term, err)
		}
		out[e.Term] = l
	}
	return out
}

// TestBuildMatchesReference is the end-to-end correctness pin: for
// several pipeline shapes (CPU-only, GPU-only, hybrid), the persisted
// index equals the serial reference indexer, postings and all.
func TestBuildMatchesReference(t *testing.T) {
	src := testSource(4)
	ref, err := reference.BuildFromSource(src)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name              string
		parsers, cpu, gpu int
	}{
		{"1p-1cpu", 1, 1, 0},
		{"3p-2cpu", 3, 2, 0},
		{"2p-2gpu", 2, 0, 2},
		{"2p-2cpu-2gpu", 2, 2, 2},
	}
	for _, s := range shapes {
		s := s
		t.Run(s.name, func(t *testing.T) {
			cfg := testConfig(s.parsers, s.cpu, s.gpu)
			cfg.OutDir = filepath.Join(t.TempDir(), "idx")
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Build(src)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Docs != ref.Docs || rep.Tokens != ref.Tokens {
				t.Fatalf("docs/tokens %d/%d, want %d/%d",
					rep.Docs, rep.Tokens, ref.Docs, ref.Tokens)
			}
			if rep.Terms != int64(ref.Terms()) {
				t.Fatalf("terms %d, want %d", rep.Terms, ref.Terms())
			}
			got := indexFromDisk(t, cfg.OutDir)
			if ok, diff := ref.Equal(got); !ok {
				t.Fatalf("postings differ from reference at %q", diff)
			}
		})
	}
}

func TestReportAccounting(t *testing.T) {
	src := testSource(4)
	cfg := testConfig(2, 1, 1)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SamplingSec <= 0 || rep.TotalSec <= 0 {
		t.Errorf("missing times: %+v", rep)
	}
	if rep.IndexersSpanSec < rep.IndexingSec {
		t.Errorf("span %.4f below serialized indexing %.4f",
			rep.IndexersSpanSec, rep.IndexingSec)
	}
	if rep.ThroughputMBps <= 0 || rep.IndexingThroughputMBps < rep.ThroughputMBps {
		t.Errorf("throughputs inconsistent: total=%.2f indexing=%.2f",
			rep.ThroughputMBps, rep.IndexingThroughputMBps)
	}
	if rep.UncompressedBytes <= rep.CompressedBytes {
		t.Error("compression accounting wrong")
	}
	if len(rep.PerFile) != 4 {
		t.Errorf("PerFile = %d entries", len(rep.PerFile))
	}
	// Both indexer classes did work (Table V nonzero).
	if rep.CPUTokens == 0 || rep.GPUTokens == 0 {
		t.Errorf("workload split degenerate: cpu=%d gpu=%d", rep.CPUTokens, rep.GPUTokens)
	}
	if rep.CPUTokens+rep.GPUTokens != rep.Tokens {
		t.Errorf("token split %d+%d != %d", rep.CPUTokens, rep.GPUTokens, rep.Tokens)
	}
	if rep.PreProcessingSec <= 0 || rep.PostProcessingSec <= 0 {
		t.Error("GPU pre/post times missing")
	}
	if rep.DictionaryBytes <= 0 || rep.PostingsBytes <= 0 {
		t.Error("output sizes missing")
	}
}

// TestGPUGetsManyMoreTermsThanCPU reproduces Table V's shape: the GPU
// (Zipf tail) sees far more distinct terms, the CPU (Zipf head)
// comparable token counts.
func TestGPUGetsManyMoreTermsThanCPU(t *testing.T) {
	src := testSource(6)
	eng, err := New(testConfig(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUTerms <= rep.CPUTerms {
		t.Errorf("GPU terms %d should exceed CPU terms %d (Zipf tail)",
			rep.GPUTerms, rep.CPUTerms)
	}
	ratio := float64(rep.CPUTokens) / float64(rep.GPUTokens+1)
	if ratio < 0.15 {
		t.Errorf("CPU tokens (%d) vanishingly small next to GPU (%d): popular split broken",
			rep.CPUTokens, rep.GPUTokens)
	}
}

func TestParseOnlyScenario(t *testing.T) {
	src := testSource(4)
	eng, err := New(testConfig(3, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.ParseOnly(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalSec <= 0 || rep.Docs <= 0 {
		t.Fatalf("degenerate parse-only report: %+v", rep)
	}
	if rep.IndexersSpanSec != 0 {
		t.Error("parse-only must not report indexer span")
	}
}

func TestMoreParsersImproveParseSpan(t *testing.T) {
	src := testSource(6)
	span := func(parsers int) float64 {
		eng, err := New(testConfig(parsers, 1, 0))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.ParseOnly(src)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalSec
	}
	one, four := span(1), span(4)
	if four >= one {
		t.Errorf("4 parsers (%.4f) not faster than 1 (%.4f) in the model", four, one)
	}
}

// TestDocTableLocatesSources verifies the Step 1 <docID, location on
// disk> table (§III.C): every docID resolves to its container file and
// byte range, and re-reading that range yields the document.
func TestDocTableLocatesSources(t *testing.T) {
	src := testSource(3)
	cfg := testConfig(2, 1, 1)
	cfg.OutDir = filepath.Join(t.TempDir(), "idx")
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenIndex(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the expected doc list from the source.
	var wantDocs [][]byte
	var wantFiles []string
	for f := 0; f < src.NumFiles(); f++ {
		stored, gz, err := src.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := corpus.Decompress(stored, gz)
		if err != nil {
			t.Fatal(err)
		}
		docs := corpus.SplitDocs(plain)
		for range docs {
			wantFiles = append(wantFiles, src.FileName(f))
		}
		wantDocs = append(wantDocs, docs...)
	}
	if int64(len(wantDocs)) != rep.Docs {
		t.Fatalf("expected %d docs, report says %d", len(wantDocs), rep.Docs)
	}
	// Decompress each file once for verification.
	plains := map[string][]byte{}
	for f := 0; f < src.NumFiles(); f++ {
		stored, gz, _ := src.ReadFile(f)
		plain, _ := corpus.Decompress(stored, gz)
		plains[src.FileName(f)] = plain
	}
	for doc := uint32(0); doc < uint32(rep.Docs); doc++ {
		file, off, n, ok := r.DocLocation(doc)
		if !ok {
			t.Fatalf("doc %d missing from doc table", doc)
		}
		if file != wantFiles[doc] {
			t.Fatalf("doc %d in file %q, want %q", doc, file, wantFiles[doc])
		}
		got := plains[file][off : off+n]
		if string(got) != string(wantDocs[doc]) {
			t.Fatalf("doc %d bytes do not round-trip through the doc table", doc)
		}
	}
	if _, _, _, ok := r.DocLocation(uint32(rep.Docs)); ok {
		t.Error("out-of-range docID must not resolve")
	}
}

func TestCustomStopWords(t *testing.T) {
	src := testSource(2)
	cfg := testConfig(2, 1, 1)
	cfg.StopWords = []string{"water", "people"} // drop two content stems
	cfg.OutDir = filepath.Join(t.TempDir(), "idx")
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Build(src); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenIndex(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	hasThe, hasWater := false, false
	for _, e := range r.Dictionary() {
		switch e.Term {
		case "the":
			hasThe = true
		case "water":
			hasWater = true
		}
	}
	if hasWater {
		t.Error("custom stop word 'water' was indexed")
	}
	if !hasThe {
		t.Error("'the' should be indexed when the default list is replaced")
	}

	// Empty non-nil list disables stop-word removal entirely.
	cfg2 := testConfig(2, 1, 0)
	cfg2.StopWords = []string{}
	cfg2.OutDir = filepath.Join(t.TempDir(), "idx2")
	eng2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Build(src); err != nil {
		t.Fatal(err)
	}
	r2, err := store.OpenIndex(cfg2.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Terms() <= r.Terms() {
		t.Errorf("no-stop-word index (%d terms) should exceed filtered (%d)",
			r2.Terms(), r.Terms())
	}
}

func TestProgressCallback(t *testing.T) {
	src := testSource(3)
	for _, concurrent := range []bool{false, true} {
		var calls []int
		cfg := testConfig(2, 1, 0)
		cfg.Progress = func(done, total int) {
			if total != 3 {
				t.Errorf("total = %d, want 3", total)
			}
			calls = append(calls, done)
		}
		cfg.Concurrent = concurrent
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if concurrent {
			_, err = eng.BuildConcurrent(src)
		} else {
			_, err = eng.Build(src)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != 3 || calls[0] != 1 || calls[2] != 3 {
			t.Errorf("concurrent=%v: progress calls = %v", concurrent, calls)
		}
	}
}

func TestBuiltIndexPassesVerify(t *testing.T) {
	src := testSource(3)
	cfg := testConfig(2, 1, 1)
	cfg.OutDir = filepath.Join(t.TempDir(), "idx")
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := store.Verify(cfg.OutDir)
	if err != nil {
		t.Fatalf("engine-built index failed verification: %v", err)
	}
	if vr.Terms != int(rep.Terms) || vr.Docs != int(rep.Docs) {
		t.Errorf("verify report %+v disagrees with build report", vr)
	}
	if !vr.HasDocLens || !vr.HasDocTable {
		t.Error("engine index must carry doc lengths and doc table")
	}
}

func TestDeterministicDictionary(t *testing.T) {
	src := testSource(3)
	build := func() int64 {
		cfg := testConfig(2, 1, 1)
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Build(src)
		if err != nil {
			t.Fatal(err)
		}
		return rep.DictionaryBytes
	}
	if a, b := build(), build(); a != b {
		t.Errorf("dictionary bytes differ across identical builds: %d vs %d", a, b)
	}
}
