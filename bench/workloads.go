package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const mib = 1 << 20

// env is what one run of one workload works with.
type env struct {
	ctx     context.Context
	bins    binaries
	work    string // scratch directory of this run, removed afterwards
	seed    int64
	seconds float64
	sz      sizes
	t       *tally
	logf    func(format string, args ...any)
}

// samples holds one run's measurements: each end-to-end metric gets
// one value per repetition inside the run, and the run reports medians.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// scrape reads the unlabelled series of /metrics.
func scrape(c *client) (map[string]float64, error) {
	body, _, err := c.do(request{method: "GET", path: "/metrics", ok: []int{200}})
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				m[name] = v
			}
		}
	}
	return m, sc.Err()
}

// deltas is how far each series moved between two scrapes.
func deltas(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ---- build_web ----

// buildState is what build_web leaves for its gate and its traced run.
type buildState struct {
	corpusDir   string
	docs        *corpusDocs
	first, last string // output directories of the first and last timed build
}

func setupWeb(e *env, s samples) (*buildState, error) {
	spec := corpusSpec{"web", e.sz.webFiles, e.sz.webScale, e.seed}
	st := &buildState{corpusDir: filepath.Join(e.work, "web")}
	for i := 0; i < e.sz.setupReps; i++ {
		if err := os.RemoveAll(st.corpusDir); err != nil {
			return nil, err
		}
		d, err := spec.write(st.corpusDir)
		if err != nil {
			return nil, err
		}
		s.add("setup_s", d.Seconds())
	}
	var err error
	st.docs, err = loadDocs(st.corpusDir)
	return st, err
}

func runBuildWeb(e *env) (samples, error) {
	s := samples{}
	st, err := setupWeb(e, s)
	if err != nil {
		return nil, err
	}
	inMB := float64(st.docs.plainBytes) / mib
	warm := filepath.Join(e.work, "idx-warm")
	if _, err := runIndex(e.ctx, e.bins.hetindex, st.corpusDir, warm); err != nil {
		return nil, err
	}
	os.RemoveAll(warm)

	var walls []float64
	t0 := time.Now()
	for rep := 0; rep < e.sz.minBuilds || time.Since(t0).Seconds() < e.seconds; rep++ {
		out := filepath.Join(e.work, fmt.Sprintf("idx-%d", rep))
		u, err := runIndex(e.ctx, e.bins.hetindex, st.corpusDir, out)
		e.t.add(err)
		if err != nil {
			return nil, err
		}
		stored, err := dirBytes(out)
		if err != nil {
			return nil, err
		}
		walls = append(walls, ms(u.wall))
		s.add("work_per_s", inMB/u.wall.Seconds())
		s.add("cpu_ms_per_unit", ms(u.cpu)/inMB)
		s.add("peak_rss_mb", u.rssMB)
		s.add("stored_bytes_per_input_byte", float64(stored)/float64(st.docs.plainBytes))
		s.add("latency_p50_ms", walls[rep])
		if st.first == "" {
			st.first = out
		} else {
			if st.last != "" {
				os.RemoveAll(st.last)
			}
			st.last = out
		}
	}
	// A build has no percentile; the tail it reports is the upper
	// quartile of its repetitions. The slowest of five or six builds is
	// whichever one a burst of the box's own noise fell on, and spread 20%
	// over ten seeds where the median build spread 10%.
	s.add("latency_tail_ms", quantile(sortedCopy(walls), 0.75))
	e.logf("build_web: %d builds of %.1f MiB, wall ms %v", len(walls), inMB, walls)
	checkBuild(e, st)
	return s, nil
}

// ---- serve_topk, serve_bool ----

// serveState is a built serving index with its request list.
type serveState struct {
	kind      string
	corpusDir string
	indexDir  string
	docs      *corpusDocs
	reqs      []request
	cursor    atomic.Int64
	args      []string
}

func setupServe(e *env, kind string, s samples) (*serveState, error) {
	spec := corpusSpec{"wiki", e.sz.wikiFiles, e.sz.wikiScale, e.seed}
	st := &serveState{kind: kind, corpusDir: filepath.Join(e.work, "wiki"), indexDir: filepath.Join(e.work, "wiki-index")}
	st.args = []string{"-index", st.indexDir, "-sample", "0"}
	if kind == "serve_bool" {
		st.args = append(st.args, "-cache-mb", strconv.Itoa(e.sz.boolCacheMB))
	}
	for i := 0; i < e.sz.setupReps; i++ {
		os.RemoveAll(st.corpusDir)
		os.RemoveAll(st.indexDir)
		gen, err := spec.write(st.corpusDir)
		if err != nil {
			return nil, err
		}
		u, err := runIndex(e.ctx, e.bins.hetindex, st.corpusDir, st.indexDir)
		if err != nil {
			return nil, err
		}
		srv, err := startServer(e.ctx, e.bins.hetserve, st.args...)
		if err != nil {
			return nil, err
		}
		if _, err := srv.stop(); err != nil {
			return nil, err
		}
		s.add("setup_s", (gen + u.wall + srv.start).Seconds())
	}
	var err error
	if st.docs, err = loadDocs(st.corpusDir); err != nil {
		return nil, err
	}
	// Enough requests that a closed loop at several thousand a second
	// does not wrap within the run.
	n := int(4000*e.seconds) + e.sz.servers*e.sz.warmReqs + e.sz.tracedReqs
	if kind == "serve_topk" {
		st.reqs = topkQueries(st.docs, e.seed, n)
	} else {
		st.reqs = boolQueries(st.docs, e.seed, e.sz.queryPool, n)
	}
	return st, nil
}

// serverResult is one freshly started server's warm-up and timed phase.
type serverResult struct {
	reqs     []timing
	cpu      time.Duration // child CPU inside the timed phase
	rssMB    float64
	startMS  float64
	counters map[string]float64 // /metrics deltas over the timed phase
}

func serveOnce(e *env, st *serveState, d time.Duration) (*serverResult, error) {
	srv, err := startServer(e.ctx, e.bins.hetserve, st.args...)
	if err != nil {
		return nil, err
	}
	res, err := func() (*serverResult, error) {
		closedLoop(srv.base, st.reqs, &st.cursor, 2, e.sz.warmReqs, 0, e.t)
		mc := newClient(srv.base)
		defer mc.close()
		before, err := scrape(mc)
		if err != nil {
			return nil, err
		}
		cpu0 := srv.cpuNow()
		reqs := closedLoop(srv.base, st.reqs, &st.cursor, 2, 0, d, e.t)
		cpu := srv.cpuNow() - cpu0
		after, err := scrape(mc)
		if err != nil {
			return nil, err
		}
		if len(reqs) == 0 {
			return nil, fmt.Errorf("%s: no request succeeded", st.kind)
		}
		return &serverResult{reqs: reqs, cpu: cpu, startMS: ms(srv.start), counters: deltas(before, after)}, nil
	}()
	u, serr := srv.stop()
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	res.rssMB = u.rssMB
	return res, nil
}

func runServe(e *env, kind string) (samples, error) {
	s := samples{}
	st, err := setupServe(e, kind, s)
	if err != nil {
		return nil, err
	}
	stored, err := dirBytes(st.indexDir)
	if err != nil {
		return nil, err
	}
	// Each fresh server's phase is cut into windows; a window is one
	// repetition of throughput, p50 and tail (p99 at these rates).
	d := time.Duration(e.seconds / float64(e.sz.servers) * float64(time.Second))
	width := d / time.Duration(e.sz.windowsPerServer)
	var all []time.Duration
	for i := 0; i < e.sz.servers; i++ {
		r, err := serveOnce(e, st, d)
		if err != nil {
			return nil, err
		}
		for _, w := range windows(r.reqs, width, d) {
			if len(w) == 0 {
				continue
			}
			l := summarize(w)
			s.add("work_per_s", float64(l.n)/width.Seconds())
			s.add("latency_p50_ms", l.p50)
			s.add("latency_tail_ms", l.tail)
		}
		s.add("cpu_ms_per_unit", ms(r.cpu)/float64(len(r.reqs)))
		s.add("peak_rss_mb", r.rssMB)
		s.add("stored_bytes_per_input_byte", float64(stored)/float64(st.docs.plainBytes))
		all = append(all, lats(r.reqs)...)
	}
	logLatency(e, kind+" search", all)
	if err := checkServe(e, st); err != nil {
		return nil, err
	}
	return s, nil
}

func logLatency(e *env, what string, lat []time.Duration) {
	l := summarize(lat)
	line := fmt.Sprintf("%s: n=%d p50=%.3fms p99=%.3fms", what, l.n, l.p50, l.p99)
	if l.hasP999 {
		line += fmt.Sprintf(" p999=%.3fms", l.p999)
	}
	e.logf("%s max=%.3fms", line, l.max)
}

// ---- live_mixed ----

// liveResult is what the HTTP run of live_mixed measured beyond its
// end-to-end samples; the traced run reports it per layer.
type liveResult struct {
	ingestLat []timing
	late      []time.Duration
	counters  map[string]float64 // /metrics deltas over phase mixed
	startMS   float64
	cpuPerOp  float64 // ms
	ingested  int
	deleted   map[int]bool
	docs      *corpusDocs
	sched     []liveOp
	searchP50 float64 // ms, phase mixed
}

// liveOp is one step of live_mixed's schedule, which derives from the
// seed alone: the HTTP run sends it, the traced run replays it.
type liveOp struct {
	kind  string // "add", "delete" or "query"
	doc   int    // add: index into the corpus, which is also the docID; delete: the docID
	words []string
	due   time.Duration // after the start of phase mixed; 0 in phase load
}

// liveSchedule lays out phase load (the first loadDocs documents) and
// phase mixed: per tick of 1/mixedRate seconds one ingest, after every
// deleteEvery-th a delete of a random earlier document, and one query
// on two words of documents the writer's schedule has already sent.
// The query is due half a tick after the ingest. Due at the same
// instant, the two clients and the server's two handlers were four
// runnable threads on two cores every tick, and what the searches then
// waited for was the scheduler (the generator itself sent 1.4 ms late at
// its p99; half a tick apart, 0.5 ms). A search still meets every seal
// and compaction, which outlast a tick many times over.
func liveSchedule(e *env, docs *corpusDocs) ([]liveOp, error) {
	// Phase mixed lasts one server's part of its share of -seconds,
	// shortened if the corpus would run out of documents.
	mixed := e.seconds * e.sz.mixedShare / float64(e.sz.servers)
	if most := float64(len(docs.docs)-e.sz.loadDocs) / e.sz.mixedRate; mixed > most {
		mixed = most
	}
	nMixed := int(mixed * e.sz.mixedRate)
	if nMixed < 1 {
		return nil, fmt.Errorf("live_mixed: corpus of %d documents is too small", len(docs.docs))
	}
	var ops []liveOp
	for i := 0; i < e.sz.loadDocs; i++ {
		ops = append(ops, liveOp{kind: "add", doc: i})
	}
	rng := rand.New(rand.NewSource(subSeed(e.seed, streamSchedule)))
	gap := time.Duration(float64(time.Second) / e.sz.mixedRate)
	deleted := map[int]bool{}
	for i := 0; i < nMixed; i++ {
		due := time.Duration(i) * gap
		ops = append(ops, liveOp{kind: "add", doc: e.sz.loadDocs + i, due: due})
		if (i+1)%e.sz.deleteEvery == 0 {
			victim := rng.Intn(e.sz.loadDocs + i)
			for deleted[victim] {
				victim = rng.Intn(e.sz.loadDocs + i)
			}
			deleted[victim] = true
			ops = append(ops, liveOp{kind: "delete", doc: victim, due: due})
		}
		// A margin of twenty documents behind the writer's schedule.
		limit := max(1, e.sz.loadDocs+i-20)
		ops = append(ops, liveOp{kind: "query", words: docs.sampleWords(rng, limit, 2), due: due + gap/2})
	}
	return ops, nil
}

func runLive(e *env) (samples, *liveResult, error) {
	s := samples{}
	spec := corpusSpec{"wiki", e.sz.wikiFiles, e.sz.wikiScale, e.seed}
	corpusDir, liveDir := filepath.Join(e.work, "wiki"), filepath.Join(e.work, "live")
	args := []string{"-live", "-index", liveDir, "-seal-every", strconv.Itoa(e.sz.sealEvery),
		"-compact-at", "4", "-codec", "auto", "-sample", "0"}
	for i := 0; i < e.sz.setupReps; i++ {
		os.RemoveAll(corpusDir)
		os.RemoveAll(liveDir)
		gen, err := spec.write(corpusDir)
		if err != nil {
			return nil, nil, err
		}
		srv, err := startServer(e.ctx, e.bins.hetserve, args...)
		if err != nil {
			return nil, nil, err
		}
		s.add("setup_s", (gen + srv.start).Seconds())
		if _, err := srv.stop(); err != nil {
			return nil, nil, err
		}
	}
	docs, err := loadDocs(corpusDir)
	if err != nil {
		return nil, nil, err
	}
	sched, err := liveSchedule(e, docs)
	if err != nil {
		return nil, nil, err
	}
	// The same schedule on each of several freshly started servers: a
	// whole server's run is a tenth faster or slower than the next one's
	// on the same inputs (where its threads and its heap happen to land),
	// and the median over servers sees through that where a longer phase
	// on one server does not.
	var res *liveResult
	for i := 0; i < e.sz.servers; i++ {
		os.RemoveAll(liveDir)
		if res, err = liveOnce(e, s, docs, sched, liveDir, args); err != nil {
			return nil, nil, err
		}
	}
	return s, res, nil
}

// liveOnce runs the schedule against one fresh live server and adds its
// repetitions to s.
func liveOnce(e *env, s samples, docs *corpusDocs, sched []liveOp, liveDir string, args []string) (*liveResult, error) {
	srv, err := startServer(e.ctx, e.bins.hetserve, args...)
	if err != nil {
		return nil, err
	}
	defer func() { srv.stop() }() // harmless after the stop below
	res := &liveResult{docs: docs, sched: sched, deleted: map[int]bool{}, startMS: ms(srv.start)}
	ingest := func(i int) request {
		return request{method: "POST", path: "/ingest", body: docs.docs[i], ok: []int{200}}
	}

	// Phase load: one closed-loop writer.
	wc := newClient(srv.base)
	defer wc.close()
	// One repetition of the ingest rate is one seal cycle: sealEvery
	// documents, the last of which pays for the seal.
	cycle := time.Now()
	for i := 0; i < e.sz.loadDocs; i++ {
		_, _, err := wc.do(ingest(i))
		e.t.add(err)
		if (i+1)%e.sz.sealEvery == 0 {
			now := time.Now()
			s.add("work_per_s", float64(e.sz.sealEvery)/now.Sub(cycle).Seconds())
			cycle = now
		}
	}

	// Phase mixed: an open-loop writer beside an open-loop reader.
	var wops, rops []op
	for _, o := range sched[e.sz.loadDocs:] {
		switch o.kind {
		case "add":
			wops = append(wops, op{ingest(o.doc), o.due, true})
			res.ingested = o.doc + 1
		case "delete":
			res.deleted[o.doc] = true
			wops = append(wops, op{request{method: "POST", path: "/delete?doc=" + strconv.Itoa(o.doc), ok: []int{200}}, o.due, false})
		case "query":
			rops = append(rops, op{topkRequest(o.words), o.due, true})
		}
	}
	mc := newClient(srv.base)
	defer mc.close()
	before, err := scrape(mc)
	if err != nil {
		return nil, err
	}
	rc := newClient(srv.base)
	defer rc.close()
	var wres, rres openResult
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() { defer wg.Done(); wres = openLoop(wc, wops, start, e.t) }()
	go func() { defer wg.Done(); rres = openLoop(rc, rops, start, e.t) }()
	wg.Wait()
	cpu := srv.cpuNow()
	after, err := scrape(mc)
	if err != nil {
		return nil, err
	}
	res.counters = deltas(before, after)
	res.ingestLat, res.late = wres.lat, append(wres.late, rres.late...)
	if len(rres.lat) == 0 || len(wres.lat) == 0 {
		return nil, fmt.Errorf("live_mixed: no request of phase mixed succeeded")
	}
	ops := float64(e.sz.loadDocs + len(wops) + len(rops))
	res.cpuPerOp = ms(cpu) / ops
	res.searchP50 = summarize(lats(rres.lat)).p50
	s.add("latency_p50_ms", res.searchP50)
	// The tail is taken per window of about a second and the median
	// window reported, so the one a seal or a burst of the box's own noise
	// lands in is one repetition among several. It is the window's p90,
	// not its p95: with 200 searches a second the p95 rests on ten
	// samples, and a slow spell of the box lengthens it about twice as
	// much as it lengthens the p90.
	phase := time.Duration(float64(len(rops)) / e.sz.mixedRate * float64(time.Second))
	width := phase / time.Duration(max(1, math.Round(phase.Seconds())))
	for _, w := range windows(rres.lat, width, phase) {
		if l := summarize(w); l.n >= 100 {
			s.add("latency_tail_ms", l.p90)
		} else if l.n > 0 {
			s.add("latency_tail_ms", l.tail)
		}
	}
	s.add("cpu_ms_per_unit", res.cpuPerOp)
	logLatency(e, "live_mixed search (from due time)", lats(rres.lat))
	logLatency(e, "live_mixed ingest (from due time)", lats(wres.lat))
	logLatency(e, "live_mixed generator lateness", res.late)

	checkLive(e, mc, res)

	// Fold everything into one segment, so that the bytes stored do not
	// depend on where a background compaction happened to be.
	for _, p := range []string{"/seal", "/compact"} {
		_, _, err := mc.do(request{method: "POST", path: p, ok: []int{200}})
		e.t.add(err)
	}
	checkLiveCount(e, mc, res)
	u, err := srv.stop()
	if err != nil {
		return nil, err
	}
	stored, err := dirBytes(liveDir)
	if err != nil {
		return nil, err
	}
	var text int64
	for _, d := range docs.docs[:res.ingested] {
		text += int64(len(d))
	}
	s.add("peak_rss_mb", u.rssMB)
	s.add("stored_bytes_per_input_byte", float64(stored)/float64(text))
	return res, nil
}
