package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fastinvert/internal/segment"
)

// jsonTokens flattens a document into encoding/json's own token stream:
// delimiters, keys and values in the order they appear, numbers as the
// float64 they parse to. Two documents with equal streams have the same
// fields in the same order with the same values, whatever their
// whitespace.
func jsonTokens(t testing.TB, doc []byte) []json.Token {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	var out []json.Token
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("bad JSON: %v\n%.300s", err, doc)
		}
		out = append(out, tok)
	}
}

// checkAppendJSON holds one value's appendJSON to what encoding/json
// makes of the same value.
func checkAppendJSON(t testing.TB, v jsonAppender) {
	t.Helper()
	fast := v.appendJSON(nil)
	if !json.Valid(fast) {
		t.Fatalf("appendJSON wrote invalid JSON: %.300s", fast)
	}
	if bytes.IndexByte(fast, '\n') >= 0 {
		t.Fatalf("appendJSON wrote a line break: %.300s", fast)
	}
	std, err := json.Marshal(v)
	if err != nil {
		// encoding/json refuses NaN and the infinities; validity is all
		// there is to hold the fast encoder to.
		return
	}
	got, want := jsonTokens(t, fast), jsonTokens(t, std)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appendJSON decodes differently from encoding/json\n fast %.300s\n std  %.300s", fast, std)
	}
	// Appending after other bytes must leave them alone.
	if pre := v.appendJSON([]byte("xy")); !bytes.Equal(pre[2:], fast) || string(pre[:2]) != "xy" {
		t.Fatalf("appendJSON onto a non-empty buffer: %.300s", pre)
	}
}

// boundaryDocIDs is every docID where the decimal writer changes the
// number of digits it writes, with both neighbours.
func boundaryDocIDs() []uint32 {
	out := []uint32{0, 1, math.MaxUint32 - 1, math.MaxUint32}
	for p := uint64(10); p <= math.MaxUint32; p *= 10 {
		out = append(out, uint32(p-1), uint32(p), uint32(p+1))
	}
	return out
}

var hostileStrings = []string{
	"", "plain words", `quote " and \ backslash`, "line\nfeed\r\ttab", "\x00\x01\x1f\x7f",
	"<script>&amp;</script>", "  and  ", "\xff\xfe invalid \xc3", "café 世界 \U0001F600",
	"\xed\xa0\x80 surrogate half", "trailing \xe2\x80",
}

var hostileFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 12.345678901234567,
	math.SmallestNonzeroFloat64, 1e-7, 9.999999e-7, 1e-6, 1e20, 1e21, 1.5e300, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	long := make([]uint32, 100_000)
	for i := range long {
		long[i] = rng.Uint32() >> uint(rng.Intn(32))
	}
	lists := [][]uint32{nil, {}, {0}, {math.MaxUint32}, boundaryDocIDs(), long}

	for _, docs := range lists {
		for _, k := range []int{0, 10} {
			for i, q := range hostileStrings {
				if len(docs) > 1000 && i > 1 {
					break // the long list once per k is enough
				}
				f := hostileFloats[i%len(hostileFloats)]
				checkAppendJSON(t, &searchResponse{Query: q, Mode: "and", K: k, Count: len(docs), Docs: docs, TookMs: f})
			}
		}
		for _, truncated := range []bool{false, true} {
			checkAppendJSON(t, &postingsResponse{Term: "Term", Normalized: "term", DF: len(docs), Docs: docs, TFs: docs, Truncated: truncated})
		}
	}
	for _, s := range hostileStrings {
		checkAppendJSON(t, &postingsResponse{Term: s, Normalized: s, Docs: []uint32{}})
	}
	var ranked []rankedDoc
	for i, f := range hostileFloats {
		ranked = append(ranked, rankedDoc{Doc: boundaryDocIDs()[i], Score: f})
		checkAppendJSON(t, &searchResponse{Query: "q", Mode: "topk", K: 10, Count: 1, Ranked: ranked[i:], TookMs: f})
	}
	finite := ranked[:len(ranked)-3] // without NaN and the infinities, so encoding/json has a say
	checkAppendJSON(t, &searchResponse{Query: "q", Mode: "topk", K: 1000, Count: len(finite), Ranked: finite, TookMs: 0.25})
	checkAppendJSON(t, &searchResponse{})
	checkAppendJSON(t, &postingsResponse{})
	// The live write responses, whose maps encoding/json sorted by key.
	for _, doc := range boundaryDocIDs() {
		for _, gen := range []uint64{0, 1, math.MaxUint64} {
			checkAppendJSON(t, &ingestResponse{Doc: doc, Generation: gen})
			checkAppendJSON(t, &deleteResponse{Deleted: true, Doc: doc, Generation: gen})
			for _, v := range []jsonAppender{&ingestResponse{Doc: doc, Generation: gen},
				&deleteResponse{Deleted: true, Doc: doc, Generation: gen}} {
				m := map[string]any{"doc": doc, "generation": gen}
				if d, ok := v.(*deleteResponse); ok {
					m["deleted"] = d.Deleted
				}
				want, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				if got := v.appendJSON(nil); !bytes.Equal(got, want) {
					t.Errorf("%T: %s, the map it replaced encodes %s", v, got, want)
				}
			}
		}
	}
	checkAppendJSON(t, &deleteResponse{})

	// Floats come back as the very bits that went in.
	for _, f := range hostileFloats[:len(hostileFloats)-3] {
		back, err := strconv.ParseFloat(string(appendFloat(nil, f)), 64)
		if err != nil || math.Float64bits(back) != math.Float64bits(f) {
			t.Errorf("appendFloat(%v) = %s, parses to %v (%v)", f, appendFloat(nil, f), back, err)
		}
	}
}

func TestAppendJSONDoesNotAllocate(t *testing.T) {
	docs := make([]uint32, 5000)
	for i := range docs {
		docs[i] = uint32(i * 37)
	}
	buf := make([]byte, 0, 1<<20)
	for _, v := range []jsonAppender{
		&searchResponse{Query: "parallel <inverted>", Mode: "and", Count: len(docs), Docs: docs, TookMs: 0.123},
		&searchResponse{Query: "q", Mode: "topk", K: 10, Count: 2, Ranked: []rankedDoc{{1, 2.5}, {7, 1e-9}}, TookMs: 1.5},
		&postingsResponse{Term: "Parallel", Normalized: "parallel", DF: len(docs), Docs: docs, TFs: docs, Truncated: true},
		&ingestResponse{Doc: 4_000_000_000, Generation: 1 << 40},
		&deleteResponse{Deleted: true, Doc: 42, Generation: 7},
	} {
		if n := testing.AllocsPerRun(50, func() { buf = v.appendJSON(buf[:0]) }); n != 0 {
			t.Errorf("%T.appendJSON allocates %.1f per call into a large enough buffer, want 0", v, n)
		}
	}
}

func FuzzResponseJSON(f *testing.F) {
	f.Add("parallel inverted", "and", 0, 3, []byte{0, 0, 0, 0, 9, 0, 0, 0, 255, 255, 255, 255}, uint64(0x3ff8000000000000), false)
	f.Add("<\"\\\n\xff >", "topk", 10, 1, []byte{10, 0, 0, 0}, math.Float64bits(math.SmallestNonzeroFloat64), true)
	f.Add("", "", -1, -1, []byte{}, math.Float64bits(1e21), false)
	f.Add("q", "or", 1, 0, []byte(nil), math.Float64bits(math.NaN()), true)
	f.Fuzz(func(t *testing.T, s, mode string, k, count int, raw []byte, bits uint64, flag bool) {
		var docs []uint32
		if flag {
			docs = []uint32{} // empty, not nil: the two encode differently without omitempty
		}
		for ; len(raw) >= 4; raw = raw[4:] {
			docs = append(docs, binary.LittleEndian.Uint32(raw))
		}
		score := math.Float64frombits(bits)
		var ranked []rankedDoc
		for _, d := range docs {
			ranked = append(ranked, rankedDoc{Doc: d, Score: score})
		}
		checkAppendJSON(t, &searchResponse{Query: s, Mode: mode, K: k, Count: count, Docs: docs, TookMs: score})
		checkAppendJSON(t, &searchResponse{Query: s, Mode: mode, K: k, Count: count, Ranked: ranked, TookMs: -score})
		checkAppendJSON(t, &postingsResponse{Term: s, Normalized: mode, DF: count, Docs: docs, TFs: docs, Truncated: flag})
	})
}

// TestQueryResponsesAreCompact checks the wire shape of the hot
// endpoints — one line, no indentation, a Content-Length that is the
// body's length — and that the cold ones kept encoding/json's.
func TestQueryResponsesAreCompact(t *testing.T) {
	idx := buildIndex(t)
	srv := New(idx, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	words := pickWords(t, idx, 2)

	for _, path := range []string{
		"/search?mode=and&q=" + words[0],
		"/search?mode=or&q=" + words[0] + "+" + words[1],
		"/search?mode=topk&k=3&q=" + words[0],
		"/postings?term=" + words[0],
	} {
		resp, body := getRaw(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("GET %s: Content-Length %q, body is %d bytes", path, cl, len(body))
		}
		if bytes.Contains(body, []byte("\n ")) || !bytes.HasSuffix(body, []byte("}\n")) || bytes.Count(body, []byte("\n")) != 1 {
			t.Errorf("GET %s: body is not one compact line: %.200s", path, body)
		}
		if !json.Valid(body) {
			t.Errorf("GET %s: invalid JSON: %.200s", path, body)
		}
	}
	for _, path := range []string{"/healthz", "/search?q=x&mode=bogus", "/debug/slowlog"} {
		if _, body := getRaw(t, ts, path); !bytes.Contains(body, []byte("\n ")) {
			t.Errorf("GET %s: cold endpoint lost its indentation: %.200s", path, body)
		}
	}

	// Live ingest's two write endpoints are hot too; /seal and /compact
	// are not.
	_, lts := newLiveServer(t, segment.Options{})
	for _, path := range []string{"/ingest", "/delete?doc=0", "/seal", "/compact"} {
		resp, err := lts.Client().Post(lts.URL+path, "text/plain", strings.NewReader("parallel inverted"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, body)
		}
		compact := !bytes.Contains(body, []byte("\n ")) && bytes.Count(body, []byte("\n")) == 1 &&
			resp.Header.Get("Content-Length") == strconv.Itoa(len(body))
		if hot := path == "/ingest" || path == "/delete?doc=0"; compact != hot || !json.Valid(body) {
			t.Errorf("POST %s: compact %v, want %v: %.200s", path, compact, hot, body)
		}
	}
}
