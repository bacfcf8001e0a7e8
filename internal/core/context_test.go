package core

import (
	"context"
	"errors"
	"testing"

	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
)

func contextTestConfig(concurrent bool) Config {
	cfg := DefaultConfig()
	cfg.Parsers = 2
	cfg.CPUIndexers = 1
	cfg.GPUs = 1
	g := gpu.TeslaC1060()
	g.SMs = 2
	g.DeviceMemBytes = 32 << 20
	cfg.GPU = g
	cfg.Sampling.Ratio = 0.2
	cfg.Concurrent = concurrent
	return cfg
}

func contextTestSource() corpus.Source {
	p := corpus.ClueWeb09(1)
	p.VocabSize = 1000
	p.DocsPerFile = 5
	p.MeanDocTokens = 30
	return corpus.NewMemSource(corpus.NewGenerator(p), 6)
}

// TestBuildContextCanceledUpfront: a pre-canceled context aborts both
// executors before any file is indexed.
func TestBuildContextCanceledUpfront(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		eng, err := New(contextTestConfig(concurrent))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var rep interface{}
		if concurrent {
			rep, err = eng.BuildConcurrentContext(ctx, contextTestSource())
		} else {
			rep, err = eng.BuildContext(ctx, contextTestSource())
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("concurrent=%v: err = %v, want context.Canceled", concurrent, err)
		}
		if rep != nil && !isNilReport(rep) {
			t.Errorf("concurrent=%v: canceled build returned a report", concurrent)
		}
	}
}

func isNilReport(v interface{}) bool {
	r, ok := v.(*Report)
	return ok && r == nil
}

// TestBuildContextCanceledMidway cancels from the Progress callback
// after the first file completes: the pipeline must drain its stage
// goroutines and return ctx.Err() instead of finishing all files.
func TestBuildContextCanceledMidway(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		cfg := contextTestConfig(concurrent)
		ctx, cancel := context.WithCancel(context.Background())
		done := 0
		cfg.Progress = func(doneFiles, total int) {
			done = doneFiles
			if doneFiles == 1 {
				cancel()
			}
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if concurrent {
			_, err = eng.BuildConcurrentContext(ctx, contextTestSource())
		} else {
			_, err = eng.BuildContext(ctx, contextTestSource())
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("concurrent=%v: err = %v, want context.Canceled", concurrent, err)
		}
		if done >= 6 {
			t.Errorf("concurrent=%v: all %d files processed despite cancellation", concurrent, done)
		}
		cancel()
	}
}

// TestBuildContextBackground: a background context changes nothing —
// the build completes and matches the plain Build result shape.
func TestBuildContextBackground(t *testing.T) {
	eng, err := New(contextTestConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.BuildConcurrentContext(context.Background(), contextTestSource())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Files != 6 || rep.Docs == 0 || rep.Terms == 0 {
		t.Fatalf("unexpected report: files=%d docs=%d terms=%d", rep.Files, rep.Docs, rep.Terms)
	}
}
