package search

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
	"fastinvert/internal/store"
)

// literalSource serves hand-written documents as one container file.
type literalSource struct {
	docs []string
}

func (s *literalSource) NumFiles() int       { return 1 }
func (s *literalSource) FileName(int) string { return "crafted-00000.txt" }
func (s *literalSource) ReadFile(int) ([]byte, bool, error) {
	var sb strings.Builder
	for _, d := range s.docs {
		sb.WriteString(corpus.DocDelim)
		sb.WriteString(d)
	}
	return []byte(sb.String()), false, nil
}

func buildPositionalIndex(t testing.TB, docs []string) *Searcher {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Parsers = 1
	cfg.CPUIndexers = 1
	cfg.GPUs = 1
	g := gpu.TeslaC1060()
	g.SMs = 2
	g.DeviceMemBytes = 32 << 20
	cfg.GPU = g
	cfg.Positional = true
	cfg.Sampling.Ratio = 1
	cfg.OutDir = filepath.Join(t.TempDir(), "idx")
	eng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Build(&literalSource{docs: docs}); err != nil {
		t.Fatal(err)
	}
	idx, err := store.OpenIndex(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	return New(idx)
}

func TestPhraseQueries(t *testing.T) {
	s := buildPositionalIndex(t, []string{
		"gpu indexing accelerates inverted files",        // doc 0
		"indexing gpu systems differ",                    // doc 1: reversed order
		"gpu fast indexing here",                         // doc 2: gap between words
		"nothing relevant whatsoever",                    // doc 3
		"more text then gpu indexing again gpu indexing", // doc 4: twice
	})

	cases := []struct {
		words []string
		want  []uint32
	}{
		{[]string{"gpu", "indexing"}, []uint32{0, 4}},
		{[]string{"indexing", "gpu"}, []uint32{1}},
		{[]string{"inverted", "files"}, []uint32{0}},
		{[]string{"gpu", "fast", "indexing"}, []uint32{2}},
		{[]string{"gpu", "systems"}, []uint32{1}},
		{[]string{"gpu", "whatsoever"}, nil},
		{[]string{"missingword", "gpu"}, nil},
	}
	for _, c := range cases {
		got, err := s.Phrase(c.words...)
		if err != nil {
			t.Fatalf("Phrase(%v): %v", c.words, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("Phrase(%v) = %v, want %v", c.words, got, c.want)
		}
	}
}

func TestPhraseWithInteriorStopWord(t *testing.T) {
	s := buildPositionalIndex(t, []string{
		"speed of light measured", // "of" is a stop word but holds position 1
		"speed light measured",    // adjacent: different shape
		"light speed of measured", // wrong order
	})
	got, err := s.Phrase("speed", "of", "light")
	if err != nil {
		t.Fatal(err)
	}
	// Only doc 0 has speed@0 ... light@2 with the stop word occupying
	// position 1; doc 1 has light directly adjacent (offset 1, not 2).
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Phrase(speed of light) = %v, want [0]", got)
	}
	// Single surviving word degenerates to a term query.
	got, err = s.Phrase("the", "measured")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("degenerate phrase = %v, want all three docs", got)
	}
}

func TestPhraseNeedsPositionalIndex(t *testing.T) {
	idx, _ := buildIndex(t) // non-positional fixture
	s := New(idx)
	if _, err := s.Phrase("water", "people"); err == nil {
		t.Error("phrase on non-positional index must error")
	}
}
