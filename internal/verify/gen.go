// Package verify is the differential correctness and fault-injection
// harness for the pipelined build. It generates randomized corpora
// from a seed, builds each one through the concurrent pipelined
// executor AND through every trusted baseline (the reference serial
// indexer plus the four §II baselines), and asserts the resulting
// indexes are term-for-term identical — the paper's central claim that
// round-robin buffer consumption keeps postings docID-sorted exactly
// like a serial indexer. A chaos layer injects faults (slow and
// failing reads, mid-stream stage errors, cancellations, corrupted
// index bytes) and asserts the pipeline either produces a verified-
// correct index or fails with a typed error and zero leaked
// goroutines.
package verify

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"strings"

	"fastinvert/internal/corpus"
)

// GenConfig parameterizes one randomized corpus. Everything is derived
// deterministically from Seed: the same config always generates
// byte-identical files, so any failure reproduces from its seed alone.
type GenConfig struct {
	Seed        int64
	Files       int
	DocsPerFile int

	// VocabSize, ZipfS and ZipfV shape the synthetic vocabulary and
	// its Zipf-skewed term frequencies (the skew drives the sampling-
	// based CPU/GPU split, so it must be present for the differential
	// run to exercise the real assignment).
	VocabSize int
	ZipfS     float64
	ZipfV     float64

	// MeanDocTokens bounds document length: each document draws
	// 1..2*MeanDocTokens tokens uniformly.
	MeanDocTokens int

	// EmptyDocRatio is the chance a document is whitespace-only
	// (dropped identically by every build path — the docID spaces must
	// still agree).
	EmptyDocRatio float64

	// DupDocRatio is the chance a document repeats the previous
	// document verbatim (duplicate content must not merge postings).
	DupDocRatio float64

	// EdgeCaseRatio is the chance a token comes from the edge-case
	// pool instead of the vocabulary: stop words, one-letter and
	// 300-byte tokens, digits, accented and non-Latin scripts, mixed
	// case, stemming families, punctuation-glued and invalid-UTF-8
	// bytes.
	EdgeCaseRatio float64

	// Compressed stores files gzipped, exercising the decompress stage.
	Compressed bool
}

// DefaultGenConfig derives a small but adversarial corpus shape from a
// seed: file count, document counts and compression all vary with the
// seed so a sweep of seeds covers different pipeline shapes. A seed
// ending in 9 (so one in any ten consecutive seeds) generates 3 files
// of 200 documents instead, enough for head terms' lists to pass the
// 256-posting blocking threshold: without it the ranked and
// block-bounds comparisons would only ever see pseudo-blocks.
func DefaultGenConfig(seed int64) GenConfig {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x1234
	g := GenConfig{
		Seed:          seed,
		Files:         2 + int(h%3),    // 2..4 container files
		DocsPerFile:   5 + int(h>>8%6), // 5..10 docs per file
		VocabSize:     300 + int(h>>16%200),
		ZipfS:         1.2,
		ZipfV:         2.0,
		MeanDocTokens: 30,
		EmptyDocRatio: 0.08,
		DupDocRatio:   0.08,
		EdgeCaseRatio: 0.15,
		Compressed:    h>>4%2 == 0,
	}
	if (seed%10+10)%10 == 9 {
		g.Files, g.DocsPerFile = 3, 200
	}
	return g
}

// edgePool holds the tokens most likely to break agreement between
// build paths: normalization, stemming, trie-collection routing and
// tokenization all see their corner cases here. None may contain the
// document delimiter's control bytes.
var edgePool = []string{
	"the", "and", "of", "is", // stop words
	"a", "i", "x", // single-letter
	"0", "42", "4294967295", "00123", // numeric
	"héllo", "naïve", "café", // accented Latin
	"日本語", "данные", "αβγδ", // non-Latin scripts
	"Mixed", "UPPER", "TitleCase", // case folding
	"running", "runs", "ran", "runner", // stemming family
	"connection", "connected", "connecting", // Porter suite
	strings.Repeat("z", 300), // very long token
	"a_b-c.d", "x+y=z", "(paren)", "semi;colon",
	"\xff\xfe\xfd", "ab\xc3\x28cd", // invalid UTF-8 sequences
}

// Source is a deterministic randomized corpus implementing
// corpus.Source. Files generate lazily and reproducibly: file i's
// bytes depend only on (GenConfig, i), so the source can be re-read
// (the engine's sampling phase reads every file twice).
type Source struct {
	cfg   GenConfig
	vocab []string
}

// NewSource builds the vocabulary and returns the corpus.
func NewSource(cfg GenConfig) *Source {
	if cfg.Files < 1 {
		cfg.Files = 1
	}
	if cfg.DocsPerFile < 1 {
		cfg.DocsPerFile = 1
	}
	if cfg.VocabSize < 2 {
		cfg.VocabSize = 2
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.ZipfV < 1 {
		cfg.ZipfV = 2.0
	}
	if cfg.MeanDocTokens < 1 {
		cfg.MeanDocTokens = 16
	}
	s := &Source{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5EED_0DD5))
	s.vocab = make([]string, cfg.VocabSize)
	var sb strings.Builder
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := range s.vocab {
		sb.Reset()
		n := 2 + rng.Intn(9)
		for j := 0; j < n; j++ {
			sb.WriteByte(letters[rng.Intn(len(letters))])
		}
		s.vocab[i] = sb.String()
	}
	return s
}

// Config returns the generating configuration.
func (s *Source) Config() GenConfig { return s.cfg }

// NumFiles implements corpus.Source.
func (s *Source) NumFiles() int { return s.cfg.Files }

// FileName implements corpus.Source.
func (s *Source) FileName(i int) string {
	ext := ".txt"
	if s.cfg.Compressed {
		ext = ".txt.gz"
	}
	return fmt.Sprintf("verify-%05d%s", i, ext)
}

// ReadFile implements corpus.Source.
func (s *Source) ReadFile(i int) ([]byte, bool, error) {
	if i < 0 || i >= s.cfg.Files {
		return nil, false, fmt.Errorf("verify: file %d out of range", i)
	}
	plain := s.generatePlain(i)
	if !s.cfg.Compressed {
		return plain, false, nil
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(plain)
	zw.Close()
	return buf.Bytes(), true, nil
}

func (s *Source) generatePlain(fileIdx int) []byte {
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ int64(fileIdx+1)*0x1E3779B97F4A7C15))
	zipf := rand.NewZipf(rng, s.cfg.ZipfS, s.cfg.ZipfV, uint64(s.cfg.VocabSize-1))

	var out bytes.Buffer
	var prev string
	for d := 0; d < s.cfg.DocsPerFile; d++ {
		out.WriteString(corpus.DocDelim)
		switch r := rng.Float64(); {
		case r < s.cfg.EmptyDocRatio:
			// Whitespace-only document: every path drops it before
			// assigning a docID.
			out.WriteString("  \n\t ")
			prev = ""
		case r < s.cfg.EmptyDocRatio+s.cfg.DupDocRatio && prev != "":
			out.WriteString(prev)
		default:
			start := out.Len()
			n := 1 + rng.Intn(2*s.cfg.MeanDocTokens)
			for t := 0; t < n; t++ {
				if rng.Float64() < s.cfg.EdgeCaseRatio {
					out.WriteString(edgePool[rng.Intn(len(edgePool))])
				} else {
					out.WriteString(s.vocab[zipf.Uint64()])
				}
				if t%11 == 10 {
					out.WriteByte('\n')
				} else {
					out.WriteByte(' ')
				}
			}
			prev = out.String()[start:]
		}
	}
	return out.Bytes()
}
