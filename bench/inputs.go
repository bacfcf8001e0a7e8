package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fastinvert"
)

// docDelim separates documents inside a corpus container file; it is
// part of the corpus file format hetindex reads.
const docDelim = "\n\x1dDOC\x1e\n"

// subSeed derives an independent stream from the run seed, so the
// corpus, the query sample, the Zipf draw and the operation schedule
// all change with -seed but not with each other's consumption.
func subSeed(seed int64, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}

const (
	streamWeb = iota + 1
	streamWiki
	streamQueries
	streamZipf
	streamSchedule
	streamChecks
)

// corpusSpec names one generated collection: a window of files of the
// profile's own collection, chosen by the seed. The profile's seed stays
// as shipped because it also draws the vocabulary, and the length of the
// few most frequent words moves every per-byte number by several percent
// from one vocabulary to the next; with one vocabulary, two seeds differ
// only in which documents they hold.
type corpusSpec struct {
	kind  string // "web" or "wiki"
	files int
	scale float64
	seed  int64
}

// write generates the collection into dir through the root package and
// returns how long that took.
func (c corpusSpec) write(dir string) (time.Duration, error) {
	p, stream := fastinvert.WikipediaProfile(c.scale), int64(streamWiki)
	if c.kind == "web" {
		p, stream = fastinvert.ClueWeb09Profile(c.scale), streamWeb
	}
	first := int(subSeed(c.seed, stream)%1000) * c.files
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	src := fastinvert.GenerateCorpus(p, first+c.files)
	for i := first; i < first+c.files; i++ {
		stored, _, err := src.ReadFile(i)
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dir, src.FileName(i)), stored, 0o644); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// corpusDocs is the generated collection as the benchmark reads it
// back: every document in docID order.
type corpusDocs struct {
	docs       [][]byte
	plainBytes int64
}

func loadDocs(dir string) (*corpusDocs, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	c := &corpusDocs{}
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, ".gz") {
			zr, err := gzip.NewReader(bytes.NewReader(raw))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if raw, err = io.ReadAll(zr); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		c.plainBytes += int64(len(raw))
		for _, d := range bytes.Split(raw, []byte(docDelim)) {
			if len(bytes.TrimSpace(d)) > 0 {
				c.docs = append(c.docs, d)
			}
		}
	}
	return c, nil
}

// words returns the document's alphabetic words of three letters or
// more, as a user would copy them out of the text.
func words(doc []byte) []string {
	var out []string
	for _, f := range bytes.Fields(doc) {
		if len(f) < 3 {
			continue
		}
		ok := true
		for _, c := range f {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, string(f))
		}
	}
	return out
}

// sampleWords draws n words from the text of randomly chosen documents
// among docs[:limit], so word popularity follows the corpus's own law:
// a random position in the document, then the first whole alphabetic
// word of three letters or more after it.
func (c *corpusDocs) sampleWords(rng *rand.Rand, limit, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		doc := c.docs[rng.Intn(limit)]
		tail := doc[rng.Intn(len(doc)):]
		if sp := bytes.IndexAny(tail, " \n"); sp >= 0 {
			// The window's last word may be cut short, so it is never taken.
			if w := words(tail[sp:min(len(tail), sp+64)]); len(w) > 1 {
				out = append(out, w[0])
			}
		}
	}
	return out
}

// request is one HTTP operation of a workload. kind and words say what
// it asks, for the in-process replay of the traced run.
type request struct {
	method string
	path   string // with query string
	body   []byte
	ok     []int // allowed status codes
	kind   string
	words  []string
}

func topkRequest(ws []string) request {
	return request{method: "GET", path: "/search?mode=topk&k=10&q=" + url.QueryEscape(strings.Join(ws, " ")),
		ok: []int{200}, kind: "topk", words: ws}
}

func andRequest(ws []string) request {
	return request{method: "GET", path: "/search?mode=and&q=" + url.QueryEscape(strings.Join(ws, " ")),
		ok: []int{200}, kind: "and", words: ws}
}

// postingsRequest may name a stop word, which the server answers 404.
func postingsRequest(w string) request {
	return request{method: "GET", path: "/postings?term=" + url.QueryEscape(w),
		ok: []int{200, 404}, kind: "postings", words: []string{w}}
}

// topkQueries makes n distinct-in-practice ranked queries of 2-3 words.
func topkQueries(c *corpusDocs, seed int64, n int) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, streamQueries)))
	out := make([]request, n)
	for i := range out {
		out[i] = topkRequest(c.sampleWords(rng, len(c.docs), 2+rng.Intn(2)))
	}
	return out
}

// zipfOffset flattens the very head of the popularity law, P(k) ~
// (zipfOffset+k)^-1.1: with an offset of 1 the single hottest request
// is a seventh of the traffic and its cost, which differs from seed to
// seed several-fold, decides the whole run's numbers. With 100 the
// hundred hottest are a sixth of the traffic and the thousand hottest
// half, and what the run measures no longer depends on which few
// requests the seed put at the head (README.md has the spreads).
const zipfOffset = 100

// boolQueries draws n requests with Zipf(1.1) popularity from a pool of
// distinct requests: 70% two-word AND, 30% single-term postings.
func boolQueries(c *corpusDocs, seed int64, pool, n int) []request {
	rng := rand.New(rand.NewSource(subSeed(seed, streamQueries)))
	p := make([]request, pool)
	for i := range p {
		if rng.Float64() < 0.7 {
			p[i] = andRequest(c.sampleWords(rng, len(c.docs), 2))
		} else {
			p[i] = postingsRequest(c.sampleWords(rng, len(c.docs), 1)[0])
		}
	}
	zrng := rand.New(rand.NewSource(subSeed(seed, streamZipf)))
	z := rand.NewZipf(zrng, 1.1, zipfOffset, uint64(pool-1))
	out := make([]request, n)
	for i := range out {
		out[i] = p[z.Uint64()]
	}
	return out
}
