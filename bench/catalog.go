package main

// metricDef is one named metric. The two lists below are the whole
// vocabulary of the benchmark; BENCHMARK.json repeats them with bounds
// and bench_test.go checks the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// Workload names, in the order repetitions are interleaved.
var workloadNames = []string{"build_web", "serve_topk", "serve_bool", "live_mixed"}

// endToEnd is reported by every workload; README.md says what each
// name measures on which workload (the run contract wants one metric
// vector for all workloads, so the names are workload-neutral).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"cpu_ms_per_unit", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"stored_bytes_per_input_byte", "B/B", "lower"},
}

// alias maps an end-to-end metric to the name ISSUE 13 gave it on a
// workload; printed beside the neutral name in the report.
var alias = map[string]map[string]string{
	"build_web": {
		"work_per_s": "build_mb_s", "cpu_ms_per_unit": "build_cpu_s per MB",
		"stored_bytes_per_input_byte": "index_bytes_per_input_byte",
		"latency_p50_ms":              "build wall", "latency_tail_ms": "build wall, upper quartile",
	},
	"serve_topk": {"work_per_s": "search_qps", "latency_p50_ms": "search_p50_ms", "latency_tail_ms": "search_p99_ms"},
	"serve_bool": {"work_per_s": "search_qps", "latency_p50_ms": "search_p50_ms", "latency_tail_ms": "search_p99_ms"},
	"live_mixed": {"work_per_s": "ingest_docs_s", "latency_p50_ms": "search_p50_ms", "latency_tail_ms": "search p90 per window"},
}

// perLayer is reported by every traced run; a metric of a layer the
// workload does not execute reads 0.
var perLayer = []metricDef{
	{"machine.kernel_ms", "ms", "lower"},
	{"corpus.read_s", "s", "lower"},
	{"corpus.gunzip_mb_s", "MB/s", "higher"},
	{"sampling.sample_s", "s", "lower"},
	{"parser.busy_s", "s", "lower"},
	{"parser.stall_s", "s", "lower"},
	{"parser.mb_s", "MB/s", "higher"},
	{"parser.tokens", "count", "lower"},
	{"cpuindexer.busy_s", "s", "lower"},
	{"cpuindexer.tokens_s", "1/s", "higher"},
	{"gpuindexer.busy_s", "s", "lower"},
	{"gpuindexer.tokens", "count", "lower"},
	{"core.cpu_token_share", "ratio", "higher"},
	{"core.build_s", "s", "lower"},
	{"core.pipeline_busy_s", "s", "lower"},
	{"core.idle_s", "s", "lower"},
	{"core.scaling_x", "ratio", "higher"},
	{"store.flush_s", "s", "lower"},
	{"store.dict_write_s", "s", "lower"},
	{"store.run_bytes", "B", "lower"},
	{"store.merge_s", "s", "lower"},
	{"store.merge_mb_s", "MB/s", "higher"},
	{"store.merged_bytes_per_posting", "B", "lower"},
	{"telemetry.observer_overhead_pct", "%", "lower"},
	{"telemetry.reqtrace_overhead_pct", "%", "lower"},
	{"serve.start_ms", "ms", "lower"},
	{"serve.handler_us_p50", "us", "lower"},
	{"serve.http_overhead_us", "us", "lower"},
	{"serve.cpu_ms_per_query", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.cache_evictions", "count", "lower"},
	{"serve.late_ms_p99", "ms", "lower"},
	{"serve.self_us", "us", "lower"},
	{"search.self_us", "us", "lower"},
	{"store.self_us", "us", "lower"},
	{"search.topk_us_p50", "us", "lower"},
	{"search.topk_exhaustive_us_p50", "us", "lower"},
	{"search.and_us_p50", "us", "lower"},
	{"search.allocs_per_query", "count", "lower"},
	{"search.blocks_decoded_per_query", "count", "lower"},
	{"search.blocks_skipped_per_query", "count", "higher"},
	{"search.fallback_share", "ratio", "lower"},
	{"store.dict_lookup_ns", "ns", "lower"},
	{"store.read_decode_us_p50", "us", "lower"},
	{"store.bytes_read_per_query", "B", "lower"},
	{"store.block_decode_ns_per_posting", "ns", "lower"},
	{"encoding.decode_ns_per_posting.varbyte", "ns", "lower"},
	{"encoding.decode_ns_per_posting.bitpack", "ns", "lower"},
	{"encoding.decode_ns_per_posting.eliasfano", "ns", "lower"},
	{"segment.add_us_p50", "us", "lower"},
	{"segment.postings_us_p50", "us", "lower"},
	{"segment.seal_ms_p50", "ms", "lower"},
	{"segment.seals", "count", "lower"},
	{"segment.compact_ms_p50", "ms", "lower"},
	{"segment.compact_mb_s", "MB/s", "higher"},
	{"segment.compactions", "count", "lower"},
	{"segment.write_amp", "B/B", "lower"},
	{"segment.ingest_p50_ms", "ms", "lower"},
	{"segment.ingest_p99_ms", "ms", "lower"},
	{"segment.ingest_max_ms", "ms", "lower"},
}

// exactCounts are the per-layer metrics that must repeat exactly on
// the same seed (single thread, no timers); -aa compares them.
var exactCounts = []string{
	"parser.tokens", "store.run_bytes", "segment.seals", "segment.compactions", "segment.write_amp",
}

// sizes fixes how much work one run does. Two presets exist: the one
// every measured run uses, and the small one bench_test.go uses.
type sizes struct {
	webFiles  int
	webScale  float64
	wikiFiles int
	wikiScale float64

	setupReps        int // set-ups per run; setup_s is their median
	minBuilds        int // build_web repetitions at least
	servers          int // freshly started servers per serve or live run
	windowsPerServer int // repetitions each server's timed phase is cut into
	warmReqs         int // untimed requests after each server's start
	boolCacheMB      int // serve_bool cache budget
	queryPool        int // distinct serve_bool queries the Zipf draw picks from

	loadDocs  int // live_mixed phase load, per server
	sealEvery int // live_mixed -seal-every
	// mixedShare is the share of -seconds the servers' mixed phases last
	// together. With 0.9 of 15 s over four servers each phase ends 175
	// documents into a seal cycle; ending on a seal or a compaction
	// trigger made peak RSS depend on how far that had got.
	mixedShare  float64
	mixedRate   float64 // ingests/s and, separately, queries/s in phase mixed
	deleteEvery int

	checks     int     // sampled items per correctness gate
	tracedReqs int     // requests replayed in-process by a traced serve run
	tracedSecs float64 // timed phase of a traced serve run's end-to-end pass
	// layerGates makes the traced run fail when its layers' timings do
	// not add up; off at the test's sizes, which asserts no timing.
	layerGates bool
}

// setReps is how many interleaved runs of each workload a whole set
// makes; the bounds in BENCHMARK.json were sized for medians of three.
const setReps = 3

// quickSeconds is how long a -quick run measures.
const quickSeconds = 0.6

var stdSizes = sizes{
	webFiles: 12, webScale: 4, wikiFiles: 24, wikiScale: 3,
	setupReps: 3, minBuilds: 3, servers: 4, windowsPerServer: 5, warmReqs: 1000, boolCacheMB: 2, queryPool: 20000,
	loadDocs: 2500, sealEvery: 500, mixedShare: 0.9, mixedRate: 200, deleteEvery: 100,
	checks: 200, tracedReqs: 2000, tracedSecs: 3, layerGates: true,
}

var quickSizes = sizes{
	webFiles: 2, webScale: 0.25, wikiFiles: 10, wikiScale: 0.25,
	setupReps: 2, minBuilds: 2, servers: 2, windowsPerServer: 2, warmReqs: 50, boolCacheMB: 1, queryPool: 500,
	loadDocs: 300, sealEvery: 75, mixedShare: 0.6, mixedRate: 40, deleteEvery: 10,
	checks: 20, tracedReqs: 300, tracedSecs: 0.3,
}
