package telemetry

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Observer receives stage-level telemetry from the build pipeline. It
// generalizes the core.Hooks fault-injection seam into a read-only
// observation seam: the engine reports what happened at each stage
// boundary and the observer decides what to do with it. Implementations
// must be safe for concurrent use — spans arrive from parser, disk and
// indexer goroutines in the concurrent executor.
//
// A nil Observer everywhere means zero overhead: the engine guards
// every call site.
type Observer interface {
	// BuildStart opens the observation window. totalFiles sizes ETA
	// math; attrs carries config shape (parsers, cpu, gpu, ...).
	BuildStart(totalFiles int, attrs map[string]any)

	// StageSpan reports one completed busy span of a stage. worker is
	// the parser/indexer index (-1 for singleton stages), file the
	// container file (-1 if n/a). start/dur are real wall-clock, never
	// model-scaled.
	StageSpan(stage string, worker, file int, start time.Time, dur time.Duration,
		bytes, tokens, docs int64)

	// Sample reports a point-in-time measurement, e.g. pipeline buffer
	// occupancy observed by the sequencer.
	Sample(name string, worker int, value float64)

	// Total reports a final named total with labels, e.g. the
	// per-trie-collection token counts split by cpu/gpu ownership.
	Total(name string, labels map[string]string, value float64)

	// BuildEnd closes the window; attrs carries the summary totals, or
	// "err" when the build failed.
	BuildEnd(attrs map[string]any)
}

// Collector is the standard Observer: it derives per-worker stall
// spans from the gaps between busy spans, maintains registry metrics
// (stage seconds, span histograms, byte/doc/token totals), records the
// build as one trace written to an optional TraceWriter, and serves
// live Progress snapshots for CLI tickers. Both Registry and the
// writer may be nil.
//
// The build trace is a RequestTrace with endpoint "build": every stage
// span and derived stall is a child of the root, on the lane of the
// worker that ran it ("parse/0", "index/3"; the stage name for the
// pipeline's singleton stages), and BuildStart/BuildEnd attrs and
// Totals become the record's attrs.
type Collector struct {
	reg *Registry
	w   *TraceWriter

	mu         sync.Mutex
	trace      *RequestTrace // open between BuildStart and BuildEnd when w != nil
	totals     map[string][]map[string]any
	epoch      time.Time
	started    bool
	totalFiles int
	lastEnd    map[string]float64 // lane -> end of its last busy/stall span
	stageBusy  map[string]float64 // busy seconds per stage
	workers    map[string]int     // stage -> max worker index + 1

	filesDone   atomic.Int64
	docs        atomic.Int64
	tokens      atomic.Int64
	readBytes   atomic.Int64
	parsedBytes atomic.Int64
}

// NewCollector wires a collector onto a registry and an optional trace
// writer.
func NewCollector(reg *Registry, w *TraceWriter) *Collector {
	return &Collector{
		reg:       reg,
		w:         w,
		lastEnd:   make(map[string]float64),
		stageBusy: make(map[string]float64),
		workers:   make(map[string]int),
	}
}

// Registry returns the collector's registry (may be nil).
func (c *Collector) Registry() *Registry { return c.reg }

// BuildStart implements Observer.
func (c *Collector) BuildStart(totalFiles int, attrs map[string]any) {
	c.mu.Lock()
	c.epoch = time.Now()
	c.started = true
	c.totalFiles = totalFiles
	if c.w != nil {
		c.trace = newTrace("build", StageBuild)
		c.epoch = c.trace.start
		c.totals = make(map[string][]map[string]any)
		for k, v := range attrs {
			c.trace.SetAttr(k, v)
		}
	}
	c.mu.Unlock()
	if c.reg != nil {
		c.reg.Gauge("fastinvert_build_files_total",
			"Container files in the collection being built.").Set(float64(totalFiles))
	}
}

// laneOf names the serial worker a build span ran on.
func laneOf(stage string, worker int) string {
	if worker < 0 {
		return stage
	}
	return stage + "/" + strconv.Itoa(worker)
}

// stalled reports the stages whose workers get derived stall spans:
// the pipeline's parallel actors, whose idle time is the backpressure
// signal the trace exists to expose.
func stalled(stage string) bool { return stage == StageParse || stage == StageIndex }

// msSpan is a build span's place in the trace: seconds since the
// build start become the record's milliseconds.
func msSpan(stage, lane string, start, dur float64) Span {
	return Span{Stage: stage, Lane: lane, StartMs: start * 1e3, DurMs: dur * 1e3}
}

// StageSpan implements Observer.
func (c *Collector) StageSpan(stage string, worker, file int, start time.Time,
	dur time.Duration, bytes, tokens, docs int64) {
	lane := laneOf(stage, worker)
	c.mu.Lock()
	if !c.started {
		c.epoch = start
		c.started = true
	}
	rel := start.Sub(c.epoch).Seconds()
	if rel < 0 {
		rel = 0
	}
	d := dur.Seconds()
	var stall, stallStart float64
	if stalled(stage) {
		if gap := rel - c.lastEnd[lane]; gap > 1e-6 {
			stall, stallStart = gap, c.lastEnd[lane]
		}
		if end := rel + d; end > c.lastEnd[lane] {
			c.lastEnd[lane] = end
		}
		if worker+1 > c.workers[stage] {
			c.workers[stage] = worker + 1
		}
	}
	c.stageBusy[stage] += d
	tr := c.trace
	c.mu.Unlock()

	switch stage {
	case StageRead:
		c.readBytes.Add(bytes)
	case StageParse:
		c.parsedBytes.Add(bytes)
		c.docs.Add(docs)
		c.tokens.Add(tokens)
	case StageFlush:
		c.filesDone.Add(1)
	}

	if c.reg != nil {
		lbl := L("stage", stage)
		c.reg.Counter("fastinvert_build_stage_seconds_total",
			"Busy seconds per pipeline stage (stall rows are derived idle gaps).", lbl).Add(d)
		c.reg.Counter("fastinvert_build_stage_spans_total",
			"Completed spans per pipeline stage.", lbl).Inc()
		c.reg.Histogram("fastinvert_build_span_seconds",
			"Distribution of per-span durations by stage.", DefBuckets, lbl).Observe(d)
		if bytes > 0 {
			c.reg.Counter("fastinvert_build_stage_bytes_total",
				"Input bytes processed per stage.", lbl).Add(float64(bytes))
		}
		if stall > 0 {
			c.reg.Counter("fastinvert_build_stage_seconds_total",
				"Busy seconds per pipeline stage (stall rows are derived idle gaps).",
				L("stage", "stall_"+stage)).Add(stall)
		}
		// Doc/token totals count the parse stage only: index spans carry
		// the same tokens again (each occurrence is parsed once, then
		// indexed once) and must not double the counters.
		if stage == StageParse {
			if docs > 0 {
				c.reg.Counter("fastinvert_build_docs_total",
					"Documents parsed.").Add(float64(docs))
			}
			if tokens > 0 {
				c.reg.Counter("fastinvert_build_tokens_total",
					"Term occurrences parsed (after stop-word removal).").Add(float64(tokens))
			}
		}
		// The sampling span carries the size of the sample it took; its
		// bytes are in stage_bytes_total{stage="sampling"} above.
		if stage == StageSampling {
			c.reg.Counter("fastinvert_build_sampled_docs_total",
				"Documents parsed by the sampling phase.").Add(float64(docs))
			c.reg.Counter("fastinvert_build_sampled_tokens_total",
				"Term occurrences counted by the sampling phase.").Add(float64(tokens))
		}
		if stage == StageFlush {
			c.reg.Gauge("fastinvert_build_files_done",
				"Container files fully indexed and flushed.").Set(float64(c.filesDone.Load()))
		}
	}
	if tr != nil {
		if stall > 0 {
			tr.addChild(msSpan(StageStall, lane, stallStart, stall))
		}
		sp := msSpan(stage, lane, rel, d)
		sp.Bytes, sp.Tokens, sp.Items = bytes, tokens, docs
		if file >= 0 {
			sp.Note = "file " + strconv.Itoa(file)
		}
		tr.addChild(sp)
	}
}

// Sample implements Observer: a registry gauge only.
func (c *Collector) Sample(name string, worker int, value float64) {
	if c.reg != nil {
		c.reg.Gauge("fastinvert_build_"+name,
			"Point-in-time pipeline sample.", L("worker", fmt.Sprintf("%d", worker))).Set(value)
	}
}

// Total implements Observer. The trace keeps the full label set (one
// entry per trie collection under the total's attr); the registry
// drops the high-cardinality "coll" label and aggregates, so the
// Prometheus snapshot stays a handful of series per total.
func (c *Collector) Total(name string, labels map[string]string, value float64) {
	if c.reg != nil {
		ls := make([]Label, 0, len(labels))
		for k, v := range labels {
			if k == "coll" {
				continue
			}
			ls = append(ls, L(k, v))
		}
		c.reg.Counter("fastinvert_build_"+name, "Final build total.", ls...).Add(value)
	}
	c.mu.Lock()
	if c.trace != nil {
		e := make(map[string]any, len(labels)+1)
		for k, v := range labels {
			e[k] = v
		}
		e["value"] = value
		c.totals[name] = append(c.totals[name], e)
	}
	c.mu.Unlock()
}

// BuildEnd implements Observer: closes every stalled worker's timeline
// with a tail stall span so busy+stall tiles the whole build window,
// then finishes the build trace and writes it. attrs["err"], set by a
// failed build, becomes the record's err.
func (c *Collector) BuildEnd(attrs map[string]any) {
	c.mu.Lock()
	wall := time.Since(c.epoch).Seconds()
	type tail struct {
		stage, lane string
		start, dur  float64
	}
	var tails []tail
	for stage, n := range c.workers {
		for w := 0; w < n; w++ {
			lane := laneOf(stage, w)
			if gap := wall - c.lastEnd[lane]; gap > 1e-6 {
				tails = append(tails, tail{stage, lane, c.lastEnd[lane], gap})
				c.lastEnd[lane] = wall
			}
		}
	}
	tr, totals := c.trace, c.totals
	c.trace, c.totals = nil, nil
	c.mu.Unlock()
	for _, t := range tails {
		if c.reg != nil {
			c.reg.Counter("fastinvert_build_stage_seconds_total",
				"Busy seconds per pipeline stage (stall rows are derived idle gaps).",
				L("stage", "stall_"+t.stage)).Add(t.dur)
		}
		if tr != nil {
			tr.addChild(msSpan(StageStall, t.lane, t.start, t.dur))
		}
	}
	if c.reg != nil {
		c.reg.Gauge("fastinvert_build_wall_seconds",
			"Wall-clock seconds of the completed build.").Set(wall)
	}
	if tr == nil {
		return
	}
	errMsg, _ := attrs["err"].(string)
	for k, v := range attrs {
		if k != "err" {
			tr.SetAttr(k, v)
		}
	}
	for name, entries := range totals {
		tr.SetAttr(name, entries)
	}
	tr.Finish(0, errMsg)
	c.w.Write(tr)
}

// Progress is a live snapshot for CLI tickers.
type Progress struct {
	Elapsed     time.Duration
	FilesDone   int
	FilesTotal  int
	Docs        int64
	Tokens      int64
	ReadBytes   int64
	ParsedBytes int64
	DocsPerSec  float64
	MBPerSec    float64 // parsed (uncompressed) MB/s
	ETA         time.Duration
	// StageUtil is busy-seconds / (elapsed × workers) per parallel
	// stage — the live utilization of the parser and indexer banks.
	StageUtil map[string]float64
}

// Progress computes a snapshot; safe to call from a ticker goroutine
// while the build runs.
func (c *Collector) Progress() Progress {
	c.mu.Lock()
	epoch, started, total := c.epoch, c.started, c.totalFiles
	util := make(map[string]float64, len(c.workers))
	elapsed := time.Since(epoch)
	if started && elapsed > 0 {
		for stage, n := range c.workers {
			if n > 0 {
				util[stage] = c.stageBusy[stage] / (elapsed.Seconds() * float64(n))
			}
		}
	}
	c.mu.Unlock()
	if !started {
		return Progress{StageUtil: util}
	}
	p := Progress{
		Elapsed:     elapsed,
		FilesDone:   int(c.filesDone.Load()),
		FilesTotal:  total,
		Docs:        c.docs.Load(),
		Tokens:      c.tokens.Load(),
		ReadBytes:   c.readBytes.Load(),
		ParsedBytes: c.parsedBytes.Load(),
		StageUtil:   util,
	}
	sec := elapsed.Seconds()
	if sec > 0 {
		p.DocsPerSec = float64(p.Docs) / sec
		p.MBPerSec = float64(p.ParsedBytes) / (1 << 20) / sec
		if p.FilesDone > 0 && total > p.FilesDone {
			perFile := sec / float64(p.FilesDone)
			p.ETA = time.Duration(perFile * float64(total-p.FilesDone) * float64(time.Second))
		}
	}
	return p
}
