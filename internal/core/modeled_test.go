package core

import (
	"fmt"
	"runtime"
	"testing"

	"fastinvert/internal/gpu"
)

// TestModeledGPUTimeIgnoresHostCores is the determinism gate of the
// device clock: with no CPU indexer, IndexingSec is transfers plus
// modeled kernels only, so a GPU-only build reports it, and every
// device's simulated seconds, bit for bit alike at GOMAXPROCS 1 and 2
// under both executors.
func TestModeledGPUTimeIgnoresHostCores(t *testing.T) {
	src := testSource(4)
	build := func(procs int, concurrent bool) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := testConfig(2, 0, 2)
		cfg.GPU.SMs = gpu.TeslaC1060().SMs
		cfg.Concurrent = concurrent
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Build(src)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("indexing %x", rep.IndexingSec)
		for j, ix := range eng.gpuIxs {
			got += fmt.Sprintf(" gpu%d %x", j, ix.Device().Stats().SimSeconds)
		}
		return got
	}
	for _, concurrent := range []bool{false, true} {
		one, two := build(1, concurrent), build(2, concurrent)
		if one != two {
			t.Errorf("concurrent=%v: GOMAXPROCS 1 read %s, GOMAXPROCS 2 read %s", concurrent, one, two)
		}
	}
}
