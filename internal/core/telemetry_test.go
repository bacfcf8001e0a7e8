package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"fastinvert/internal/telemetry"
)

// traceLine mirrors the JSONL event envelope for test-side decoding.
type traceLine struct {
	Ev     string            `json:"ev"`
	Span   *telemetry.Span   `json:"span"`
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
	Attrs  map[string]any    `json:"attrs"`
}

// TestPipelineTelemetry runs both executors with a Collector attached
// and checks the resulting trace end-to-end: it validates (spans nest,
// schema shape), busy+stall accounts for ≥90% of wall-clock, per-stage
// span payloads sum to the build report's totals, and the
// per-collection token counters reproduce the CPU/GPU split.
func TestPipelineTelemetry(t *testing.T) {
	const files = 4
	for _, mode := range []string{"serial", "concurrent"} {
		t.Run(mode, func(t *testing.T) {
			src := testSource(files)
			var buf bytes.Buffer
			tw := telemetry.NewTraceWriter(&buf)
			reg := telemetry.NewRegistry()
			col := telemetry.NewCollector(reg, tw)

			cfg := testConfig(2, 1, 2)
			cfg.OutDir = filepath.Join(t.TempDir(), "idx")
			cfg.Observer = col
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var rep *Report
			if mode == "serial" {
				rep, err = eng.Build(src)
			} else {
				rep, err = eng.BuildConcurrent(src)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}

			st, err := telemetry.ValidateTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			if st.WallSec <= 0 {
				t.Fatalf("summary wall_sec = %v, want > 0", st.WallSec)
			}
			// The acceptance gate: derived stalls close every worker's
			// timeline, so busy+stall sums to wall-clock within 10%.
			if st.BusyStallCoverage < 0.9 {
				t.Errorf("busy+stall coverage = %.1f%%, want >= 90%%", 100*st.BusyStallCoverage)
			}
			for wk, cov := range st.WorkerCoverage {
				if cov < 0.99 {
					t.Errorf("worker %s busy+stall covers %.1f%% of its window", wk, 100*cov)
				}
			}

			// Re-read the raw events and sum span payloads against the
			// build report.
			var parseTokens, parseDocs, indexTokens int64
			var sampled telemetry.Span
			var flushes, reads int
			var collCPU, collGPU float64
			sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
			sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
			for sc.Scan() {
				var ev traceLine
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatal(err)
				}
				switch {
				case ev.Ev == "span" && ev.Span.Stage == telemetry.StageSampling:
					sampled = *ev.Span
				case ev.Ev == "span" && ev.Span.Stage == telemetry.StageParse:
					parseTokens += ev.Span.Tokens
					parseDocs += ev.Span.Docs
				case ev.Ev == "span" && ev.Span.Stage == telemetry.StageIndex:
					indexTokens += ev.Span.Tokens
				case ev.Ev == "span" && ev.Span.Stage == telemetry.StageFlush:
					flushes++
				case ev.Ev == "span" && ev.Span.Stage == telemetry.StageRead:
					reads++
				case ev.Ev == "counter" && ev.Name == "collection_tokens":
					if ev.Labels["kind"] == "gpu" {
						collGPU += ev.Value
					} else {
						collCPU += ev.Value
					}
				}
			}
			if parseTokens != rep.Tokens || parseDocs != rep.Docs {
				t.Errorf("parse spans sum to %d tokens / %d docs, report says %d / %d",
					parseTokens, parseDocs, rep.Tokens, rep.Docs)
			}
			// The sampling span reports the sample it took, and the
			// report and registry agree with it.
			if sampled.Docs < int64(files) || sampled.Docs >= rep.Docs || sampled.Tokens <= 0 ||
				sampled.Bytes <= 0 || sampled.Bytes >= rep.UncompressedBytes {
				t.Errorf("sampling span carries %d docs / %d tokens / %d bytes of a %d-doc, %d-byte build",
					sampled.Docs, sampled.Tokens, sampled.Bytes, rep.Docs, rep.UncompressedBytes)
			}
			if sampled.Docs != rep.SampledDocs || sampled.Bytes != rep.SampledBytes {
				t.Errorf("sampling span %d docs / %d bytes, report says %d / %d",
					sampled.Docs, sampled.Bytes, rep.SampledDocs, rep.SampledBytes)
			}
			if v := reg.Counter("fastinvert_build_sampled_docs_total", "").Value(); int64(v) != rep.SampledDocs {
				t.Errorf("registry sampled docs = %v, report %d", v, rep.SampledDocs)
			}
			if indexTokens != rep.Tokens {
				t.Errorf("index spans sum to %d tokens, report says %d", indexTokens, rep.Tokens)
			}
			if flushes != files || reads != files {
				t.Errorf("flush/read spans = %d/%d, want %d each", flushes, reads, files)
			}
			if int64(collCPU) != rep.CPUTokens || int64(collGPU) != rep.GPUTokens {
				t.Errorf("collection_tokens split %v/%v, report %d/%d",
					collCPU, collGPU, rep.CPUTokens, rep.GPUTokens)
			}

			// Registry view must agree with the report too.
			if v := reg.Counter("fastinvert_build_docs_total", "").Value(); int64(v) != rep.Docs {
				t.Errorf("registry docs = %v, report %d", v, rep.Docs)
			}
			if v := reg.Counter("fastinvert_build_tokens_total", "").Value(); int64(v) != rep.Tokens {
				t.Errorf("registry tokens = %v, report %d", v, rep.Tokens)
			}
		})
	}
}

// TestObserverOffByDefault: a nil Observer must leave the engine's
// observation path completely inert (no collTokens allocation).
func TestObserverOffByDefault(t *testing.T) {
	src := testSource(2)
	cfg := testConfig(2, 1, 0)
	cfg.OutDir = filepath.Join(t.TempDir(), "idx")
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Build(src); err != nil {
		t.Fatal(err)
	}
	if eng.collTokens != nil {
		t.Error("collTokens allocated without an observer")
	}
}
