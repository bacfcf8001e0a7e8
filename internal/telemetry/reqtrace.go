// Request-scoped tracing for the serving tier. A RequestTrace is a
// span tree carried through context.Context from the HTTP handler down
// to the pread/decode leaves of the store, attributing each request's
// wall time to named stages (dictionary lookup, cache probe, disk
// read, codec decode, list merge, memtable scan, ranking). The same
// machinery traces background seal/compaction operations so slow-query
// spans can be correlated with concurrent maintenance.
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

// reqStages is the closed set ValidateRequestTraces accepts.
var reqStages = map[string]bool{
	ReqStageHandler: true, ReqStageWait: true, ReqStageDict: true,
	ReqStageCache: true, ReqStagePread: true, ReqStageDecode: true,
	ReqStageMerge: true, ReqStageMemtable: true, ReqStageRank: true,
	ReqStageEncode: true, ReqStageWrite: true, ReqStageCommit: true,
}

// queryStages are the stages that attribute query-path cost — the set
// the tracecheck -min-stages gate counts distinct members of.
var queryStages = map[string]bool{
	ReqStageDict: true, ReqStageCache: true, ReqStagePread: true,
	ReqStageDecode: true, ReqStageMerge: true, ReqStageMemtable: true,
	ReqStageRank: true, ReqStageWait: true,
}

// ReqSpan is one node of a request's span tree. Par indexes the parent
// span within the same trace (-1 for the root); start/duration are
// milliseconds relative to the trace start.
type ReqSpan struct {
	Stage   string  `json:"stage"`
	Par     int     `json:"par"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
	Bytes   int64   `json:"bytes,omitempty"`
	Items   int64   `json:"items,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// ReqTraceRecord is the JSON form of a finished trace — one line of
// the request-trace JSONL stream and the /debug/trace response body.
type ReqTraceRecord struct {
	Ev          string         `json:"ev"` // always "reqtrace"
	ID          string         `json:"id"`
	Endpoint    string         `json:"endpoint"`
	Query       string         `json:"query,omitempty"`
	Gen         uint64         `json:"gen,omitempty"`
	StartUnixMs int64          `json:"start_unix_ms"`
	DurMs       float64        `json:"dur_ms"`
	Status      int            `json:"status,omitempty"`
	Err         string         `json:"err,omitempty"`
	Slow        bool           `json:"slow,omitempty"`
	Attrs       map[string]any `json:"attrs,omitempty"`
	Spans       []ReqSpan      `json:"spans"`
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
	spans    []ReqSpan
	open     []int // indices of started-but-unfinished spans, stack order
	done     bool
	durMs    float64
}

// NewRequestTrace starts a trace for the named endpoint or background
// operation ("search", "seal", ...), with the root span already open.
func NewRequestTrace(endpoint string) *RequestTrace {
	t := &RequestTrace{
		id:       fmt.Sprintf("%x-%x", traceEpoch, traceSeq.Add(1)),
		start:    time.Now(),
		endpoint: endpoint,
		spans:    make([]ReqSpan, 0, 16),
	}
	t.spans = append(t.spans, ReqSpan{Stage: ReqStageHandler, Par: -1})
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
	t.spans = append(t.spans, ReqSpan{Stage: stage, Par: par, StartMs: t.sinceMs()})
	t.open = append(t.open, idx)
	t.mu.Unlock()
	return SpanRef{t: t, idx: int32(idx)}
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
func (t *RequestTrace) Snapshot() ReqTraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := ReqTraceRecord{
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
		Spans:       append([]ReqSpan(nil), t.spans...),
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

// ReqTraceWriter streams finished request traces as JSON lines,
// mirroring TraceWriter for build traces. Safe for concurrent use.
type ReqTraceWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	err error
}

// NewReqTraceWriter wraps w; if w is also an io.Closer, Close closes it.
func NewReqTraceWriter(w io.Writer) *ReqTraceWriter {
	t := &ReqTraceWriter{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// CreateReqTraceFile creates path and returns a writer over it.
func CreateReqTraceFile(path string) (*ReqTraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: create request trace: %w", err)
	}
	return NewReqTraceWriter(f), nil
}

// Write appends one finished trace. Encoding errors are sticky and
// surfaced by Close.
func (w *ReqTraceWriter) Write(t *RequestTrace) {
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
func (w *ReqTraceWriter) Close() error {
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

// ReqTraceStats summarizes a validated request-trace stream.
type ReqTraceStats struct {
	Traces    int            // total reqtrace records
	Spans     int            // total spans across traces
	Slow      int            // traces flagged slow
	Errors    int            // traces carrying an error
	Endpoints map[string]int // traces per endpoint
	StageMs   map[string]float64
	// MaxQueryStages is the largest count of distinct query stages
	// observed in any single trace — the tracecheck -min-stages gate.
	MaxQueryStages int
}

// spanEps absorbs float rounding when comparing child-span sums
// against parent wall time (milliseconds).
const spanEps = 0.05

// ValidateRequestTraces reads a request-trace JSONL stream and
// enforces the schema plus the structural invariants every consumer
// relies on: known stages, parent indices pointing backwards, spans
// inside the trace window, and — the big one — the sum of children's
// wall time never exceeding the parent span's (nesting means children
// run within the parent, so a violation is double-counted time).
func ValidateRequestTraces(r io.Reader) (*ReqTraceStats, error) {
	st := &ReqTraceStats{
		Endpoints: make(map[string]int),
		StageMs:   make(map[string]float64),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec ReqTraceRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("line %d: bad JSON: %w", line, err)
		}
		if rec.Ev != "reqtrace" {
			return nil, fmt.Errorf("line %d: ev %q, want \"reqtrace\"", line, rec.Ev)
		}
		if rec.ID == "" {
			return nil, fmt.Errorf("line %d: empty trace id", line)
		}
		if rec.Endpoint == "" {
			return nil, fmt.Errorf("line %d: empty endpoint", line)
		}
		if rec.DurMs < 0 {
			return nil, fmt.Errorf("line %d: negative duration %g", line, rec.DurMs)
		}
		if len(rec.Spans) == 0 {
			return nil, fmt.Errorf("line %d: trace %s has no spans", line, rec.ID)
		}
		if rec.Spans[0].Par != -1 || rec.Spans[0].Stage != ReqStageHandler {
			return nil, fmt.Errorf("line %d: trace %s: span 0 must be the root %q span",
				line, rec.ID, ReqStageHandler)
		}
		childSum := make([]float64, len(rec.Spans))
		distinct := make(map[string]bool, 8)
		for i, sp := range rec.Spans {
			if !reqStages[sp.Stage] {
				return nil, fmt.Errorf("line %d: trace %s span %d: unknown stage %q",
					line, rec.ID, i, sp.Stage)
			}
			if i > 0 && (sp.Par < 0 || sp.Par >= i) {
				return nil, fmt.Errorf("line %d: trace %s span %d: parent %d out of range",
					line, rec.ID, i, sp.Par)
			}
			if sp.StartMs < 0 || sp.DurMs < 0 {
				return nil, fmt.Errorf("line %d: trace %s span %d: negative time", line, rec.ID, i)
			}
			if sp.StartMs+sp.DurMs > rec.DurMs+spanEps {
				return nil, fmt.Errorf("line %d: trace %s span %d (%s): ends %.3fms after the trace (%.3fms)",
					line, rec.ID, i, sp.Stage, sp.StartMs+sp.DurMs-rec.DurMs, rec.DurMs)
			}
			if sp.Par >= 0 {
				childSum[sp.Par] += sp.DurMs
			}
			if queryStages[sp.Stage] {
				distinct[sp.Stage] = true
			}
			st.StageMs[sp.Stage] += sp.DurMs
			st.Spans++
		}
		for i, sp := range rec.Spans {
			if childSum[i] > sp.DurMs+spanEps {
				return nil, fmt.Errorf(
					"line %d: trace %s span %d (%s): children sum %.3fms exceeds span %.3fms",
					line, rec.ID, i, sp.Stage, childSum[i], sp.DurMs)
			}
		}
		st.Traces++
		st.Endpoints[rec.Endpoint]++
		if rec.Slow {
			st.Slow++
		}
		if rec.Err != "" {
			st.Errors++
		}
		if len(distinct) > st.MaxQueryStages {
			st.MaxQueryStages = len(distinct)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: read request trace: %w", err)
	}
	if st.Traces == 0 {
		return nil, fmt.Errorf("telemetry: request trace stream is empty")
	}
	return st, nil
}

// ValidateRequestTraceFile opens path and validates it.
func ValidateRequestTraceFile(path string) (*ReqTraceStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open request trace: %w", err)
	}
	defer f.Close()
	return ValidateRequestTraces(f)
}
