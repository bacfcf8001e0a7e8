package probe

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fastinvert"
	"fastinvert/internal/corpus"
	"fastinvert/internal/cpuindexer"
	"fastinvert/internal/parser"
)

// stageSpan is one Observer report of the build pipeline.
type stageSpan struct {
	stage         string
	worker        int
	start         time.Time
	dur           time.Duration
	bytes, tokens int64
}

// buildObserver is the benchmark's own recorder behind Options.Observer.
// The interface uses only built-in types and time, so it needs no
// import of internal/telemetry.
type buildObserver struct {
	mu    sync.Mutex
	spans []stageSpan
}

func (o *buildObserver) BuildStart(int, map[string]any) {}
func (o *buildObserver) StageSpan(stage string, worker, file int, start time.Time, dur time.Duration, bytes, tokens, docs int64) {
	o.mu.Lock()
	o.spans = append(o.spans, stageSpan{stage, worker, start, dur, bytes, tokens})
	o.mu.Unlock()
}
func (o *buildObserver) Sample(string, int, float64)              {}
func (o *buildObserver) Total(string, map[string]string, float64) {}
func (o *buildObserver) BuildEnd(map[string]any)                  {}

// buildOnce runs the build hetindex runs for `-concurrent -codec auto`
// with its default 6 parsers, 2 CPU and 2 GPU indexers, in process.
func buildOnce(corpusDir, outDir string, obs *buildObserver) (time.Duration, *fastinvert.Report, error) {
	if err := os.RemoveAll(outDir); err != nil {
		return 0, nil, err
	}
	src, err := fastinvert.OpenCorpusDir(corpusDir)
	if err != nil {
		return 0, nil, err
	}
	opts := fastinvert.DefaultOptions()
	opts.OutDir = outDir
	opts.Concurrent = true
	opts.RunCodec = "auto"
	if obs != nil {
		opts.Observer = obs
	}
	b, err := fastinvert.NewBuilder(opts)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	rep, err := b.BuildContext(context.Background(), src)
	return time.Since(t0), rep, err
}

// Build is the traced run of build_web: one observed in-process build
// and merge recorded as spans under parent, the same build unobserved
// and at GOMAXPROCS 1, and the serial probes of the hot layers.
func Build(rec *Recorder, parent int64, corpusDir, scratch string, gate func(bool, string, ...any), logf func(string, ...any)) (map[string]float64, error) {
	m := map[string]float64{}
	out := filepath.Join(scratch, "probe-index")

	// Observed build, recorded.
	obs := &buildObserver{}
	bid := rec.Begin(parent, "core.build", "main")
	t0 := time.Now()
	wall1, rep, err := buildOnce(corpusDir, out, obs)
	outer := time.Since(t0) // the build as this caller sees it, set-up included
	rec.End(bid)
	if err != nil {
		return nil, fmt.Errorf("observed build: %w", err)
	}
	cpuIndexers := fastinvert.DefaultOptions().CPUIndexers
	var all, pipeline []interval
	lanes := map[string][]stageSpan{}
	for _, s := range obs.spans {
		lo := s.start.Sub(t0).Nanoseconds()
		iv := interval{lo, lo + s.dur.Nanoseconds()}
		all = append(all, iv)
		layer := ""
		switch s.stage {
		case "sampling":
			m["sampling.sample_s"] += s.dur.Seconds()
			layer = "sampling"
		case "read":
			m["corpus.read_s"] += s.dur.Seconds()
			layer = "corpus"
		case "parse":
			m["parser.busy_s"] += s.dur.Seconds()
			m["parser.tokens"] += float64(s.tokens)
			layer = "parser"
		case "index":
			if s.worker < cpuIndexers {
				m["cpuindexer.busy_s"] += s.dur.Seconds()
				layer = "cpuindexer"
			} else {
				m["gpuindexer.busy_s"] += s.dur.Seconds()
				layer = "gpuindexer"
			}
		case "flush":
			m["store.flush_s"] += s.dur.Seconds()
			m["store.run_bytes"] += float64(s.bytes)
			layer = "store"
		case "dict_combine", "dict_write":
			m["store.dict_write_s"] += s.dur.Seconds()
			layer = "store"
		default:
			layer = "core"
		}
		if s.stage != "sampling" {
			pipeline = append(pipeline, iv)
		}
		lane := fmt.Sprintf("%s/%d", s.stage, s.worker)
		lanes[lane] = append(lanes[lane], s)
		rec.Add(bid, layer+"."+s.stage, lane, s.start, s.dur)
	}
	// A parser's stall is the time between its first span's start and
	// its last span's end that no span of its covers.
	for lane, ss := range lanes {
		if !strings.HasPrefix(lane, "parse/") {
			continue
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].start.Before(ss[j].start) })
		busy := time.Duration(0)
		for _, s := range ss {
			busy += s.dur
		}
		last := ss[len(ss)-1]
		m["parser.stall_s"] += (last.start.Add(last.dur).Sub(ss[0].start) - busy).Seconds()
	}
	m["core.build_s"] = wall1.Seconds()
	m["core.pipeline_busy_s"] = seconds(unionLen(pipeline))
	m["core.idle_s"] = wall1.Seconds() - seconds(unionLen(all))
	m["gpuindexer.tokens"] = float64(rep.GPUTokens)
	m["core.cpu_token_share"] = float64(rep.CPUTokens) / float64(rep.CPUTokens+rep.GPUTokens)

	// Merge, the serial suffix of the build.
	idx, err := fastinvert.OpenWith(out, fastinvert.ReaderOptions{MergeCodec: "auto"})
	if err != nil {
		return nil, err
	}
	mid := rec.Begin(parent, "store.merge", "main")
	t1 := time.Now()
	ms, err := idx.Merge()
	mergeWall := time.Since(t1)
	rec.End(mid)
	idx.Close()
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	m["store.merge_s"] = mergeWall.Seconds()
	m["store.merge_mb_s"] = float64(ms.Bytes) / (1 << 20) / mergeWall.Seconds()
	vr, err := fastinvert.VerifyIndex(out)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	m["store.merged_bytes_per_posting"] = float64(ms.Bytes) / float64(vr.Postings)

	// The same build without the recorder, then both once more, so the
	// overhead is a difference of means of two.
	wall2, _, err := buildOnce(corpusDir, out, nil)
	if err != nil {
		return nil, err
	}
	wall3, _, err := buildOnce(corpusDir, out, &buildObserver{})
	if err != nil {
		return nil, err
	}
	wall4, _, err := buildOnce(corpusDir, out, nil)
	if err != nil {
		return nil, err
	}
	with, without := (wall1+wall3).Seconds()/2, (wall2+wall4).Seconds()/2
	m["telemetry.observer_overhead_pct"] = 100 * (with - without) / without
	logf("build_web traced: in-process build %.3fs with the recorder, %.3fs without; merge %.3fs", with, without, mergeWall.Seconds())
	// The layers add up: what the Observer's spans account for, plus the
	// time no span was open, plus merge, against the wall of build and
	// merge as timed from outside. A stage span outside the build's
	// interval, sampling overlapping the pipeline, or set-up the
	// Observer never sees would break it.
	sum := m["sampling.sample_s"] + m["core.pipeline_busy_s"] + m["core.idle_s"] + m["store.merge_s"]
	wall := (outer + mergeWall).Seconds()
	logf("build_web layers: sampling %.3f + pipeline busy %.3f + idle %.3f + merge %.3f = %.3f of build plus merge %.3f s",
		m["sampling.sample_s"], m["core.pipeline_busy_s"], m["core.idle_s"], m["store.merge_s"], sum, wall)
	gate(m["core.idle_s"] >= 0, "core.idle_s is %.3f s: stage spans cover more than the build's wall", m["core.idle_s"])
	gate(sum >= 0.9*wall && sum <= 1.1*wall, "build_web layers sum to %.3f s, build plus merge took %.3f s", sum, wall)

	procs := runtime.GOMAXPROCS(1)
	wall5, _, err := buildOnce(corpusDir, out, nil)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	m["core.scaling_x"] = wall5.Seconds() / without
	os.RemoveAll(out)

	return m, probeStages(rec, parent, corpusDir, m)
}

// probeStages calls each hot layer's public function alone, serially,
// over the whole corpus: the busy seconds above come from ten workers
// sharing the cores and over-count.
func probeStages(rec *Recorder, parent int64, corpusDir string, m map[string]float64) error {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		return err
	}
	pid := rec.Begin(parent, "probes", "main")
	defer rec.End(pid)
	var gunzip, parse, index time.Duration
	var plainBytes, gzBytes, tokens int64
	psr := parser.New(nil)
	ix := cpuindexer.New()
	docBase := uint32(0)
	for _, e := range entries {
		stored, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			return err
		}
		gz := strings.HasSuffix(e.Name(), ".gz")
		t := time.Now()
		plain, err := corpus.Decompress(stored, gz)
		if err != nil {
			return err
		}
		if gz {
			d := time.Since(t)
			rec.Add(pid, "corpus.Decompress", "main", t, d)
			gunzip += d
			gzBytes += int64(len(plain))
		}
		plainBytes += int64(len(plain))

		var docs [][]byte
		for _, d := range bytes.Split(plain, []byte(corpus.DocDelim)) {
			if len(bytes.TrimSpace(d)) > 0 {
				docs = append(docs, d)
			}
		}
		blk := parser.NewBlock(0)
		t = time.Now()
		for d, doc := range docs {
			psr.ParseDoc(uint32(d), doc, blk)
		}
		d := time.Since(t)
		rec.Add(pid, "parser.ParseDoc", "main", t, d)
		parse += d

		groups := make([]*parser.Group, 0, len(blk.Groups))
		for _, g := range blk.Groups {
			groups = append(groups, g)
		}
		sort.Slice(groups, func(i, j int) bool { return groups[i].Index < groups[j].Index })
		t = time.Now()
		rs, err := ix.IndexRun(groups, docBase)
		d = time.Since(t)
		if err != nil {
			return err
		}
		rec.Add(pid, "cpuindexer.IndexRun", "main", t, d)
		index += d
		tokens += rs.Tokens
		ix.ResetRunPostings()
		docBase += uint32(len(docs))
	}
	if gunzip > 0 {
		m["corpus.gunzip_mb_s"] = float64(gzBytes) / (1 << 20) / gunzip.Seconds()
	}
	m["parser.mb_s"] = float64(plainBytes) / (1 << 20) / parse.Seconds()
	m["cpuindexer.tokens_s"] = float64(tokens) / index.Seconds()
	return nil
}
