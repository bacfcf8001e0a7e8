// One trace model for every traced operation. A RequestTrace is a span
// tree, carried through context.Context from the HTTP handler down to
// the pread/decode leaves of the store, that attributes a request's
// wall time to named stages (dictionary lookup, cache probe, disk
// read, codec decode, list merge, memtable scan, ranking). The same
// tree records background seal/compaction operations, so slow-query
// spans can be correlated with concurrent maintenance, and whole index
// builds (Collector), whose stage spans sit on one lane per pipeline
// worker. Every finished trace is one TraceRecord, one JSON line of a
// TraceWriter stream, and one ValidateTraces rule covers them all.
//
// Sampling is two-layered: head sampling (1-in-N, Sampler.Sample)
// bounds collection cost, and latency-triggered retention
// (Sampler.Slow) pins slow traces in a separate ring so tail outliers
// survive buffer churn. Unsampled requests never see a trace: every
// entry point is nil-safe and TraceFrom on a context without a trace
// is a map-free, allocation-free lookup, so the hot path cost of a
// disabled or unsampled request is zero allocations.
package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Serving-stage names for request spans. Query stages attribute
// per-request cost; the encode/write/commit stages appear in
// background seal/compaction operation traces.
const (
	ReqStageHandler  = "handler"  // root span: whole HTTP handler
	ReqStageWait     = "wait"     // queued for a worker-pool slot
	ReqStageDict     = "dict"     // dictionary lookup
	ReqStageCache    = "cache"    // postings-cache probe
	ReqStagePread    = "pread"    // disk read of an encoded list
	ReqStageDecode   = "decode"   // codec decode
	ReqStageMerge    = "merge"    // list intersection/union/fan-out
	ReqStageMemtable = "memtable" // live memtable scan
	ReqStageRank     = "rank"     // top-k scoring + heap selection
	ReqStageEncode   = "encode"   // seal: memtable -> run-file bytes
	ReqStageWrite    = "write"    // seal/compact: file writes + fsync
	ReqStageCommit   = "commit"   // seal/compact: manifest + view swap
)

// Build-stage names: the stage strings the pipeline passes to
// Observer.StageSpan, plus the build trace's root and the stall spans
// the Collector derives.
const (
	StageBuild       = "build"        // root span: the whole build
	StageSampling    = "sampling"     // §III.E popularity sample, before the pipeline
	StageRead        = "read"         // serialized container-file read
	StageParse       = "parse"        // decompress + tokenize + regroup
	StageIndex       = "index"        // one indexer consuming its share of a block
	StageFlush       = "flush"        // combine + compress + write one run
	StageDictCombine = "dict_combine" // final dictionary merge
	StageDictWrite   = "dict_write"   // front-coded dictionary write
	StageStall       = "stall"        // a worker waiting for upstream/downstream
)

// stages is the closed vocabulary ValidateTraces accepts.
var stages = map[string]bool{
	ReqStageHandler: true, ReqStageWait: true, ReqStageDict: true,
	ReqStageCache: true, ReqStagePread: true, ReqStageDecode: true,
	ReqStageMerge: true, ReqStageMemtable: true, ReqStageRank: true,
	ReqStageEncode: true, ReqStageWrite: true, ReqStageCommit: true,
	StageBuild: true, StageSampling: true, StageRead: true,
	StageParse: true, StageIndex: true, StageFlush: true,
	StageDictCombine: true, StageDictWrite: true, StageStall: true,
}

// queryStages are the stages that attribute query-path cost — the set
// the tracecheck -min-stages gate counts distinct members of.
var queryStages = map[string]bool{
	ReqStageDict: true, ReqStageCache: true, ReqStagePread: true,
	ReqStageDecode: true, ReqStageMerge: true, ReqStageMemtable: true,
	ReqStageRank: true, ReqStageWait: true,
}

// Span is one node of a trace's span tree. Par indexes the parent span
// within the same trace (-1 for the root); start/duration are
// milliseconds relative to the trace start. Lane names the serial
// worker a span ran on ("parse/0", "index/3"); spans of one lane under
// one parent never overlap, spans of different lanes may. Request
// spans all sit on the default lane "".
type Span struct {
	Stage   string  `json:"stage"`
	Par     int     `json:"par"`
	Lane    string  `json:"lane,omitempty"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
	Bytes   int64   `json:"bytes,omitempty"`
	Items   int64   `json:"items,omitempty"` // lists, segments; documents in a build
	Tokens  int64   `json:"tokens,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// TraceRecord is the JSON form of a finished trace — one line of the
// trace JSONL stream and the /debug/trace response body.
type TraceRecord struct {
	Ev          string         `json:"ev"` // always "reqtrace"
	ID          string         `json:"id"`
	Endpoint    string         `json:"endpoint"` // "search", "seal", "build", ...
	Query       string         `json:"query,omitempty"`
	Gen         uint64         `json:"gen,omitempty"`
	StartUnixMs int64          `json:"start_unix_ms"`
	DurMs       float64        `json:"dur_ms"`
	Status      int            `json:"status,omitempty"`
	Err         string         `json:"err,omitempty"`
	Slow        bool           `json:"slow,omitempty"`
	Attrs       map[string]any `json:"attrs,omitempty"`
	Spans       []Span         `json:"spans"`
}

// traceSeq feeds process-unique request IDs; traceEpoch distinguishes
// restarts in long-lived JSONL sinks.
var (
	traceSeq   atomic.Uint64
	traceEpoch = time.Now().UnixMilli()
)

// RequestTrace collects the span tree for one sampled request or one
// background operation. All methods are safe for concurrent use: a
// query abandoned by its deadline may still be running on a pool
// worker and appending spans while the handler finishes the trace —
// Finish flips done, after which late StartSpan/End calls are dropped.
type RequestTrace struct {
	id    string
	start time.Time

	mu       sync.Mutex
	endpoint string
	query    string
	gen      uint64
	status   int
	errMsg   string
	slow     bool
	attrs    map[string]any
	spans    []Span
	open     []int // indices of started-but-unfinished spans, stack order
	done     bool
	durMs    float64
}

// NewRequestTrace starts a trace for the named endpoint or background
// operation ("search", "seal", ...), with the root span already open.
func NewRequestTrace(endpoint string) *RequestTrace {
	return newTrace(endpoint, ReqStageHandler)
}

func newTrace(endpoint, root string) *RequestTrace {
	t := &RequestTrace{
		id:       fmt.Sprintf("%x-%x", traceEpoch, traceSeq.Add(1)),
		start:    time.Now(),
		endpoint: endpoint,
		spans:    make([]Span, 0, 16),
	}
	t.spans = append(t.spans, Span{Stage: root, Par: -1})
	t.open = append(t.open, 0)
	return t
}

// ID returns the process-unique trace ID.
func (t *RequestTrace) ID() string { return t.id }

func (t *RequestTrace) sinceMs() float64 {
	return float64(time.Since(t.start)) / float64(time.Millisecond)
}

// SpanRef is a handle to one started span. The zero value (from
// StartSpan on a nil trace) is inert: End and every setter no-op
// without allocating, which is what keeps unsampled requests free.
type SpanRef struct {
	t   *RequestTrace
	idx int32
}

// StartSpan opens a child of the innermost open span. Safe on a nil
// trace (returns an inert ref).
func (t *RequestTrace) StartSpan(stage string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return SpanRef{}
	}
	par := -1
	if n := len(t.open); n > 0 {
		par = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, Span{Stage: stage, Par: par, StartMs: t.sinceMs()})
	t.open = append(t.open, idx)
	t.mu.Unlock()
	return SpanRef{t: t, idx: int32(idx)}
}

// addChild appends a finished child of the root span timed by the
// caller: build stages arrive from the pipeline's workers already
// closed.
func (t *RequestTrace) addChild(sp Span) {
	sp.Par = 0
	t.mu.Lock()
	if !t.done {
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// End closes the span. Ending out of stack order is tolerated (the
// span is removed from wherever it sits in the open stack).
func (s SpanRef) End() {
	t := s.t
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		sp := &t.spans[s.idx]
		if sp.DurMs == 0 {
			sp.DurMs = t.sinceMs() - sp.StartMs
		}
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == int(s.idx) {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
	}
	t.mu.Unlock()
}

// AddBytes attributes n bytes of I/O or payload to the span.
func (s SpanRef) AddBytes(n int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if !s.t.done {
		s.t.spans[s.idx].Bytes += n
	}
	s.t.mu.Unlock()
}

// Live reports whether the ref records anything: false for the inert
// ref of an unsampled request, so callers can skip building a note.
func (s SpanRef) Live() bool { return s.t != nil }

// AddItems attributes n logical items (lists, segments, docs).
func (s SpanRef) AddItems(n int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if !s.t.done {
		s.t.spans[s.idx].Items += n
	}
	s.t.mu.Unlock()
}

// SetNote attaches a short free-form annotation ("hit", codec name).
func (s SpanRef) SetNote(note string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if !s.t.done {
		s.t.spans[s.idx].Note = note
	}
	s.t.mu.Unlock()
}

// SetQuery records the request's query string. Nil-safe.
func (t *RequestTrace) SetQuery(q string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.query = q
	}
	t.mu.Unlock()
}

// SetGeneration records the index generation the request ran against.
func (t *RequestTrace) SetGeneration(gen uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.gen = gen
	}
	t.mu.Unlock()
}

// SetAttr attaches a named attribute (background ops: docs, segments).
func (t *RequestTrace) SetAttr(key string, value any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		if t.attrs == nil {
			t.attrs = make(map[string]any, 4)
		}
		t.attrs[key] = value
	}
	t.mu.Unlock()
}

// MarkSlow flags the trace as latency-retained.
func (t *RequestTrace) MarkSlow() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slow = true
	t.mu.Unlock()
}

// Finish seals the trace: every still-open span (including the root)
// is closed at the current clock, the total duration is fixed, and
// later span operations from abandoned goroutines become no-ops.
// status is the HTTP status (0 for background operations); errMsg is
// empty on success. Finish is idempotent and nil-safe; it returns the
// total duration.
func (t *RequestTrace) Finish(status int, errMsg string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return time.Duration(t.durMs * float64(time.Millisecond))
	}
	now := t.sinceMs()
	for _, idx := range t.open {
		sp := &t.spans[idx]
		if sp.DurMs == 0 {
			sp.DurMs = now - sp.StartMs
		}
	}
	t.open = nil
	t.durMs = now
	t.status = status
	t.errMsg = errMsg
	t.done = true
	return time.Duration(now * float64(time.Millisecond))
}

// Duration returns the finished trace's wall time (0 before Finish).
func (t *RequestTrace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.durMs * float64(time.Millisecond))
}

// Snapshot renders the trace as a record. Valid after Finish; calling
// it earlier snapshots the in-flight state (used by /debug/trace).
func (t *RequestTrace) Snapshot() TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := TraceRecord{
		Ev:          "reqtrace",
		ID:          t.id,
		Endpoint:    t.endpoint,
		Query:       t.query,
		Gen:         t.gen,
		StartUnixMs: t.start.UnixMilli(),
		DurMs:       t.durMs,
		Status:      t.status,
		Err:         t.errMsg,
		Slow:        t.slow,
		Spans:       append([]Span(nil), t.spans...),
	}
	if len(t.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(t.attrs))
		for k, v := range t.attrs {
			rec.Attrs[k] = v
		}
	}
	return rec
}

// StageDurations sums span wall time per stage (excluding the root
// handler span) — the per-stage breakdown slow-log entries carry.
func (t *RequestTrace) StageDurations() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]float64, 8)
	for i, sp := range t.spans {
		if i == 0 {
			continue
		}
		m[sp.Stage] += sp.DurMs
	}
	return m
}

// traceKey is the private context key type for RequestTrace.
type traceKey struct{}

// ContextWithTrace attaches a trace to ctx. Only call for sampled
// requests — the attach itself allocates a context node.
func ContextWithTrace(ctx context.Context, t *RequestTrace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil. The nil path —
// every unsampled request — performs no allocation.
func TraceFrom(ctx context.Context) *RequestTrace {
	t, _ := ctx.Value(traceKey{}).(*RequestTrace)
	return t
}

// Sampler decides which requests get a trace. Head sampling picks one
// request in every `every` (deterministically, via an atomic counter,
// so low-rate endpoints still get coverage); the slow threshold
// triggers latency-based retention for requests that already carry a
// trace and slow-log entry for all others. slow < 0 treats every
// request as slow (log everything — used by the CI load generator).
type Sampler struct {
	every uint64
	slow  time.Duration
	ctr   atomic.Uint64
}

// NewSampler builds a sampler tracing 1-in-every requests (0 disables
// tracing entirely) with the given slow-query threshold.
func NewSampler(every int, slow time.Duration) *Sampler {
	if every < 0 {
		every = 0
	}
	return &Sampler{every: uint64(every), slow: slow}
}

// Enabled reports whether any request can be sampled.
func (s *Sampler) Enabled() bool { return s != nil && s.every > 0 }

// Sample returns true for one request in every N. Zero allocations.
func (s *Sampler) Sample() bool {
	if s == nil || s.every == 0 {
		return false
	}
	if s.every == 1 {
		return true
	}
	return s.ctr.Add(1)%s.every == 1
}

// Slow reports whether d crosses the latency-retention threshold.
func (s *Sampler) Slow(d time.Duration) bool {
	if s == nil {
		return false
	}
	if s.slow < 0 {
		return true
	}
	return s.slow > 0 && d >= s.slow
}

// SlowThreshold returns the configured threshold (negative = all).
func (s *Sampler) SlowThreshold() time.Duration {
	if s == nil {
		return 0
	}
	return s.slow
}

// TraceBuffer retains recently finished traces for /debug/trace: a
// ring of the most recent sampled traces plus a separate ring pinning
// slow ones, so tail-latency outliers survive the churn of fast
// requests.
type TraceBuffer struct {
	mu     sync.Mutex
	recent []*RequestTrace
	slow   []*RequestTrace
	next   int
	nextSl int
}

// NewTraceBuffer retains up to size recent and size/2 slow traces.
func NewTraceBuffer(size int) *TraceBuffer {
	if size < 4 {
		size = 4
	}
	return &TraceBuffer{
		recent: make([]*RequestTrace, size),
		slow:   make([]*RequestTrace, (size+1)/2),
	}
}

// Add retains a finished trace.
func (b *TraceBuffer) Add(t *RequestTrace) {
	if b == nil || t == nil {
		return
	}
	b.mu.Lock()
	b.recent[b.next] = t
	b.next = (b.next + 1) % len(b.recent)
	t.mu.Lock()
	slow := t.slow
	t.mu.Unlock()
	if slow {
		b.slow[b.nextSl] = t
		b.nextSl = (b.nextSl + 1) % len(b.slow)
	}
	b.mu.Unlock()
}

// Get returns the retained trace with the given ID, or nil.
func (b *TraceBuffer) Get(id string) *RequestTrace {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, t := range b.recent {
		if t != nil && t.id == id {
			return t
		}
	}
	for _, t := range b.slow {
		if t != nil && t.id == id {
			return t
		}
	}
	return nil
}

// Traces returns every retained trace, newest first, slow-pinned
// traces included once.
func (b *TraceBuffer) Traces() []*RequestTrace {
	b.mu.Lock()
	defer b.mu.Unlock()
	seen := make(map[string]bool, len(b.recent)+len(b.slow))
	out := make([]*RequestTrace, 0, len(b.recent)+len(b.slow))
	add := func(ring []*RequestTrace, next int) {
		for i := 0; i < len(ring); i++ {
			t := ring[(next-1-i+2*len(ring))%len(ring)]
			if t != nil && !seen[t.id] {
				seen[t.id] = true
				out = append(out, t)
			}
		}
	}
	add(b.recent, b.next)
	add(b.slow, b.nextSl)
	return out
}

// SlowLogEntry is one slow-query record. Stages is the per-stage
// millisecond breakdown when the request was also sampled (nil for
// slow-but-unsampled requests, which still log endpoint + latency).
type SlowLogEntry struct {
	ID          string             `json:"id,omitempty"`
	Endpoint    string             `json:"endpoint"`
	Query       string             `json:"query,omitempty"`
	StartUnixMs int64              `json:"start_unix_ms"`
	DurMs       float64            `json:"dur_ms"`
	Status      int                `json:"status"`
	Err         string             `json:"err,omitempty"`
	Stages      map[string]float64 `json:"stages,omitempty"`
}

// SlowLog is a fixed-size ring of slow-query entries.
type SlowLog struct {
	mu      sync.Mutex
	entries []SlowLogEntry
	next    int
	total   uint64
}

// NewSlowLog retains the most recent size entries.
func NewSlowLog(size int) *SlowLog {
	if size < 1 {
		size = 1
	}
	return &SlowLog{entries: make([]SlowLogEntry, size)}
}

// Add records one slow query.
func (l *SlowLog) Add(e SlowLogEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.entries[l.next] = e
	l.next = (l.next + 1) % len(l.entries)
	l.total++
	l.mu.Unlock()
}

// Total returns the number of slow queries ever logged.
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Entries returns retained entries, newest first.
func (l *SlowLog) Entries() []SlowLogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowLogEntry, 0, len(l.entries))
	for i := 0; i < len(l.entries); i++ {
		e := l.entries[(l.next-1-i+2*len(l.entries))%len(l.entries)]
		if e.Endpoint != "" {
			out = append(out, e)
		}
	}
	return out
}

// TraceWriter streams finished traces as JSON lines: sampled requests,
// background operations and builds alike. Safe for concurrent use.
type TraceWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	err error
}

// NewTraceWriter wraps w; if w is also an io.Closer, Close closes it.
func NewTraceWriter(w io.Writer) *TraceWriter {
	t := &TraceWriter{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// CreateTraceFile creates path and returns a writer over it.
func CreateTraceFile(path string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: create trace: %w", err)
	}
	return NewTraceWriter(f), nil
}

// Write appends one finished trace. Encoding errors are sticky and
// surfaced by Close.
func (w *TraceWriter) Write(t *RequestTrace) {
	if w == nil || t == nil {
		return
	}
	rec := t.Snapshot()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.bw.Write(append(b, '\n')); err != nil {
		w.err = err
	}
}

// Close flushes and closes the underlying writer.
func (w *TraceWriter) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if w.c != nil {
		if err := w.c.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// TraceStats summarizes a validated trace stream.
type TraceStats struct {
	Traces    int            // total records
	Spans     int            // total spans across records
	Slow      int            // traces flagged slow
	Errors    int            // traces carrying an error
	Endpoints map[string]int // traces per endpoint
	StageMs   map[string]float64
	// MaxQueryStages is the largest count of distinct query stages
	// observed in any single trace — the tracecheck -min-stages gate.
	MaxQueryStages int
	// LaneCoverage maps each stalled lane ("parse/0") to the fraction
	// of its active window, first span start to last span end, that its
	// busy+stall spans cover (the lowest over records). Near 1.0 when
	// stalls are traced.
	LaneCoverage map[string]float64
	// BusyStallCoverage is the stalled lanes' busy+stall time over
	// lanes × root wall time, pooled over records — the tracecheck
	// -min-coverage gate. 0 when no record has a stalled lane.
	BusyStallCoverage float64

	laneMs, laneWallMs float64
}

// Clock tolerances of the span rules, in milliseconds. A span on the
// default lane differs from its parent only by float rounding. A span
// on a worker lane was timed on the worker's goroutine, and
// consecutive ones may overlap by the jitter between clock reads on
// different goroutines.
const (
	spanEps      = 0.05
	laneJitterMs = 1.0
)

func tolerance(lane string) float64 {
	if lane == "" {
		return spanEps
	}
	return laneJitterMs
}

// ValidateTraces reads a JSONL trace stream and enforces the schema
// plus the one structural rule every consumer relies on: each span
// lies inside its parent (the root inside the trace window), and the
// children of one parent on one lane never sum past the parent — a
// lane is serial, so a violation is double-counted time. Records are
// decoded whole, whatever their size: one build is one line.
func ValidateTraces(r io.Reader) (*TraceStats, error) {
	st := &TraceStats{
		Endpoints:    make(map[string]int),
		StageMs:      make(map[string]float64),
		LaneCoverage: make(map[string]float64),
	}
	dec := json.NewDecoder(r)
	for n := 1; ; n++ {
		var rec TraceRecord
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("record %d: bad JSON: %w", n, err)
		}
		if err := st.add(&rec); err != nil {
			return nil, fmt.Errorf("record %d: trace %s: %w", n, rec.ID, err)
		}
	}
	if st.Traces == 0 {
		return nil, fmt.Errorf("telemetry: trace stream is empty")
	}
	if st.laneWallMs > 0 {
		st.BusyStallCoverage = st.laneMs / st.laneWallMs
	}
	return st, nil
}

// add validates one record and folds it into the stats.
func (st *TraceStats) add(rec *TraceRecord) error {
	switch {
	case rec.Ev != "reqtrace":
		return fmt.Errorf("ev %q, want \"reqtrace\"", rec.Ev)
	case rec.ID == "":
		return fmt.Errorf("empty trace id")
	case rec.Endpoint == "":
		return fmt.Errorf("empty endpoint")
	case rec.DurMs < 0:
		return fmt.Errorf("negative duration %g", rec.DurMs)
	case len(rec.Spans) == 0:
		return fmt.Errorf("no spans")
	case rec.Spans[0].Par != -1 || (rec.Spans[0].Stage != ReqStageHandler && rec.Spans[0].Stage != StageBuild):
		return fmt.Errorf("span 0 must be the root %q or %q span", ReqStageHandler, StageBuild)
	}
	type laneKey struct {
		par  int
		lane string
	}
	type lane struct {
		ms, first, last float64
		stalled         bool
	}
	lanes := make(map[laneKey]*lane)
	distinct := make(map[string]bool, 8)
	for i, sp := range rec.Spans {
		if !stages[sp.Stage] {
			return fmt.Errorf("span %d: unknown stage %q", i, sp.Stage)
		}
		if i > 0 && (sp.Par < 0 || sp.Par >= i) {
			return fmt.Errorf("span %d: parent %d out of range", i, sp.Par)
		}
		if sp.StartMs < 0 || sp.DurMs < 0 {
			return fmt.Errorf("span %d: negative time", i)
		}
		lo, hi, tol := 0.0, rec.DurMs, spanEps
		if i > 0 {
			p := rec.Spans[sp.Par]
			lo, hi, tol = p.StartMs, p.StartMs+p.DurMs, tolerance(sp.Lane)
		}
		end := sp.StartMs + sp.DurMs
		if sp.StartMs < lo-tol || end > hi+tol {
			return fmt.Errorf("span %d (%s) [%.3f, %.3f]ms is not inside its parent [%.3f, %.3f]ms",
				i, sp.Stage, sp.StartMs, end, lo, hi)
		}
		if i > 0 {
			k := laneKey{sp.Par, sp.Lane}
			l := lanes[k]
			if l == nil {
				l = &lane{first: sp.StartMs, last: end}
				lanes[k] = l
			}
			l.ms += sp.DurMs
			l.first, l.last = min(l.first, sp.StartMs), max(l.last, end)
			l.stalled = l.stalled || sp.Stage == StageStall
			if p := rec.Spans[sp.Par]; l.ms > p.DurMs+tol {
				return fmt.Errorf("children of span %d (%s) on lane %q sum %.3fms past the span's %.3fms",
					sp.Par, p.Stage, sp.Lane, l.ms, p.DurMs)
			}
		}
		if queryStages[sp.Stage] {
			distinct[sp.Stage] = true
		}
		st.StageMs[sp.Stage] += sp.DurMs
		st.Spans++
	}
	// Coverage of the root's stalled lanes: a worker is busy or stalled
	// for the whole build, so its lane sum approaches the root's wall.
	for k, l := range lanes {
		if k.par != 0 || !l.stalled {
			continue
		}
		cov := 1.0
		if w := l.last - l.first; w > 0 {
			cov = l.ms / w
		}
		if old, ok := st.LaneCoverage[k.lane]; !ok || cov < old {
			st.LaneCoverage[k.lane] = cov
		}
		st.laneMs += l.ms
		st.laneWallMs += rec.Spans[0].DurMs
	}
	st.Traces++
	st.Endpoints[rec.Endpoint]++
	if rec.Slow {
		st.Slow++
	}
	if rec.Err != "" {
		st.Errors++
	}
	st.MaxQueryStages = max(st.MaxQueryStages, len(distinct))
	return nil
}

// ValidateTraceFile opens path and validates it.
func ValidateTraceFile(path string) (*TraceStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open trace: %w", err)
	}
	defer f.Close()
	return ValidateTraces(f)
}
