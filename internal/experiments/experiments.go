// Package experiments regenerates every table and figure of the
// paper's evaluation (§IV) on the synthetic collections, shared by the
// benchrunner CLI and the root bench suite. Each experiment returns
// structured rows plus a paper-style text rendering.
//
// Absolute numbers come from this host's measured stage durations fed
// through the pipeline/GPU/cluster models; the paper's testbed (two
// Xeon X5560, two Tesla C1060, 1 Gb Ethernet disk) produced different
// absolute values. The comparisons in EXPERIMENTS.md track the shape:
// who wins, by what factor, and where the crossovers fall.
package experiments

import (
	"fmt"

	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
)

// Scale sizes the synthetic collections. Factor multiplies document
// counts and lengths; Files is the container-file count per
// collection.
type Scale struct {
	Files  int
	Factor float64
}

// DefaultScale keeps every experiment in the seconds-to-a-minute range.
func DefaultScale() Scale { return Scale{Files: 16, Factor: 1} }

// generate builds a synthetic collection held in memory: an experiment
// times its reads, which over a lazy corpus.MemSource would time the
// generator.
func generate(p corpus.Profile, files int) corpus.Source {
	return corpus.NewMemSource(corpus.NewGenerator(p), files).Materialize()
}

// ClueWebSource builds the ClueWeb09-like collection.
func ClueWebSource(s Scale) corpus.Source { return generate(corpus.ClueWeb09(s.Factor), s.Files) }

// WikipediaSource builds the Wikipedia01-07-like collection.
func WikipediaSource(s Scale) corpus.Source {
	return generate(corpus.Wikipedia0107(s.Factor), s.Files)
}

// LibraryOfCongressSource builds the LoC-like collection.
func LibraryOfCongressSource(s Scale) corpus.Source {
	return generate(corpus.LibraryOfCongress(s.Factor), s.Files)
}

// EngineConfig returns the standard experiment engine configuration
// for a pipeline shape.
func EngineConfig(parsers, cpus, gpus int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Parsers = parsers
	cfg.CPUIndexers = cpus
	cfg.GPUs = gpus
	g := gpu.TeslaC1060()
	g.DeviceMemBytes = 256 << 20
	cfg.GPU = g
	cfg.Sampling.Ratio = 0.02
	return cfg
}

// Trials is the number of repetitions per measured configuration; the
// best run is kept (the paper reports 3-trial averages with <2%
// spread; the minimum is the steadiest statistic on a shared host).
var Trials = 2

func buildWith(src corpus.Source, parsers, cpus, gpus int) (*core.Report, error) {
	var best *core.Report
	for i := 0; i < Trials; i++ {
		eng, err := core.New(EngineConfig(parsers, cpus, gpus))
		if err != nil {
			return nil, err
		}
		rep, err := eng.Build(src)
		if err != nil {
			return nil, err
		}
		if best == nil || rep.IndexersSpanSec < best.IndexersSpanSec {
			best = rep
		}
	}
	return best, nil
}

// multiSource concatenates sources, used by Fig. 11 to append
// Wikipedia-like files after the ClueWeb-like body (the paper's
// behavior shift at file index 1200).
type multiSource struct {
	parts []corpus.Source
}

// ConcatSources joins sources end to end.
func ConcatSources(parts ...corpus.Source) corpus.Source {
	return &multiSource{parts: parts}
}

func (m *multiSource) NumFiles() int {
	n := 0
	for _, p := range m.parts {
		n += p.NumFiles()
	}
	return n
}

func (m *multiSource) locate(i int) (corpus.Source, int) {
	for _, p := range m.parts {
		if i < p.NumFiles() {
			return p, i
		}
		i -= p.NumFiles()
	}
	return nil, -1
}

func (m *multiSource) FileName(i int) string {
	p, j := m.locate(i)
	if p == nil {
		return fmt.Sprintf("out-of-range-%d", i)
	}
	return p.FileName(j)
}

func (m *multiSource) ReadFile(i int) ([]byte, bool, error) {
	p, j := m.locate(i)
	if p == nil {
		return nil, false, fmt.Errorf("experiments: file %d out of range", i)
	}
	return p.ReadFile(j)
}
