package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"fastinvert"
)

// The correctness gates run untimed after a workload's repetitions.
// Every item they look at is one attempted operation; a wrong answer
// is a failed one.

func (e *env) gate(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
		e.logf("GATE FAILED: %v", err)
	}
	e.t.add(err)
}

func sameFile(a, b string) (bool, error) {
	x, err := os.ReadFile(a)
	if err != nil {
		return false, err
	}
	y, err := os.ReadFile(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(x, y), nil
}

// checkBuild: the index verifies, holds every document, repeats byte
// for byte, and finds sampled words in the documents they came from.
func checkBuild(e *env, st *buildState) {
	vr, err := fastinvert.VerifyIndex(st.last)
	e.gate(err == nil, "VerifyIndex: %v", err)
	if err == nil {
		e.gate(vr.Docs == len(st.docs.docs), "index holds %d documents, corpus %d", vr.Docs, len(st.docs.docs))
	}
	for _, name := range []string{"merged.post", "dictionary.fidc"} {
		same, err := sameFile(filepath.Join(st.first, name), filepath.Join(st.last, name))
		e.gate(err == nil && same, "%s differs between the first and last build (%v)", name, err)
	}
	idx, err := fastinvert.Open(st.last)
	e.gate(err == nil, "open index: %v", err)
	if err != nil {
		return
	}
	defer idx.Close()
	srch := fastinvert.NewSearcher(idx)
	rng := rand.New(rand.NewSource(subSeed(e.seed, streamChecks)))
	for n := 0; n < e.sz.checks; {
		doc := rng.Intn(len(st.docs.docs))
		ws := words(st.docs.docs[doc])
		if len(ws) == 0 {
			continue
		}
		w := ws[rng.Intn(len(ws))]
		term, stop := srch.Normalize(w)
		if stop || term == "" {
			continue
		}
		n++
		l, err := idx.Postings(term)
		if err != nil {
			e.gate(false, "postings of %q: %v", term, err)
			continue
		}
		_, found := slices.BinarySearch(l.DocIDs, uint32(doc))
		e.gate(found, "document %d holds %q but the postings of %q do not list it", doc, w, term)
	}
}

type searchReply struct {
	Docs   []uint32 `json:"docs"`
	Ranked []struct {
		Doc   uint32  `json:"doc"`
		Score float64 `json:"score"`
	} `json:"ranked"`
}

type postingsReply struct {
	Docs []uint32 `json:"docs"`
}

func getJSON(c *client, path string, ok []int, v any) (int, error) {
	body, status, err := c.do(request{method: "GET", path: path, ok: ok})
	if err != nil {
		return status, err
	}
	if status == 200 {
		err = json.Unmarshal(body, v)
	}
	return status, err
}

// intersectAll returns the documents every list holds.
func intersectAll(lists [][]uint32) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	out := lists[0]
	for _, l := range lists[1:] {
		var both []uint32
		for _, d := range out {
			if _, ok := slices.BinarySearch(l, d); ok {
				both = append(both, d)
			}
		}
		out = both
	}
	return out
}

// checkServe: serve_topk answers as the exhaustive scorer does;
// serve_bool's AND equals the intersection of the words' postings.
func checkServe(e *env, st *serveState) error {
	srv, err := startServer(e.ctx, e.bins.hetserve, st.args...)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.close()
	rng := rand.New(rand.NewSource(subSeed(e.seed, streamChecks)))
	for n := 0; n < e.sz.checks; {
		r := st.reqs[rng.Intn(len(st.reqs))]
		switch r.kind {
		case "topk":
			n++
			var auto, exh searchReply
			_, err1 := getJSON(c, r.path, r.ok, &auto)
			_, err2 := getJSON(c, r.path+"&rank=exhaustive", r.ok, &exh)
			e.gate(err1 == nil && err2 == nil && fmt.Sprint(auto.Ranked) == fmt.Sprint(exh.Ranked),
				"%s: ranked answer differs from rank=exhaustive (%v %v)\n auto %v\n exh  %v", r.path, err1, err2, auto.Ranked, exh.Ranked)
		case "and":
			n++
			var got searchReply
			_, err := getJSON(c, r.path, r.ok, &got)
			var lists [][]uint32
			for _, w := range r.words {
				var p postingsReply
				// A 404 here is a stop word, which AND ignores: every word
				// was copied out of an indexed document.
				status, perr := getJSON(c, "/postings?limit=100000000&term="+url.QueryEscape(w), []int{200, 404}, &p)
				if perr != nil {
					err = perr
				}
				if status == 200 {
					lists = append(lists, p.Docs)
				}
			}
			e.gate(err == nil && slices.Equal(got.Docs, intersectAll(lists)),
				"%s: AND differs from the intersection of its postings (%v)", r.path, err)
		}
	}
	return nil
}

// stopWords builds a throw-away index through the root package to get
// the system's own stop-word test, so a gate never asks for a word the
// index by design does not hold.
func stopWords(dir string) (isStop func(string) bool, closeFn func(), err error) {
	opts := fastinvert.DefaultOptions()
	opts.OutDir = dir
	b, err := fastinvert.NewBuilder(opts)
	if err != nil {
		return nil, nil, err
	}
	if _, err := b.Build(fastinvert.GenerateCorpus(fastinvert.WikipediaProfile(0.25), 1)); err != nil {
		return nil, nil, err
	}
	idx, err := fastinvert.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	srch := fastinvert.NewSearcher(idx)
	return func(w string) bool { _, stop := srch.Normalize(w); return stop }, func() { idx.Close() }, nil
}

// checkLive: sampled surviving documents are found by an AND query on
// two of their own words, and no answer lists a deleted document.
func checkLive(e *env, c *client, res *liveResult) {
	isStop, done, err := stopWords(filepath.Join(e.work, "stopwords-index"))
	e.gate(err == nil, "stop-word index: %v", err)
	if err != nil {
		return
	}
	defer done()
	rng := rand.New(rand.NewSource(subSeed(e.seed, streamChecks)))
	for n := 0; n < e.sz.checks/2; {
		doc := rng.Intn(res.ingested)
		if res.deleted[doc] {
			continue
		}
		var pick []string
		for _, w := range words(res.docs.docs[doc]) {
			if !isStop(w) && !slices.Contains(pick, w) {
				pick = append(pick, w)
			}
		}
		if len(pick) < 2 {
			continue
		}
		rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
		n++
		var got searchReply
		_, err := getJSON(c, andRequest(pick[:2]).path, []int{200}, &got)
		_, found := slices.BinarySearch(got.Docs, uint32(doc))
		e.gate(err == nil && found, "live document %d not found by AND on its words %q (%v)", doc, strings.Join(pick[:2], " "), err)
		dead := -1
		for _, d := range got.Docs {
			if res.deleted[int(d)] {
				dead = int(d)
			}
		}
		e.gate(dead < 0, "deleted document %d listed by AND on %q", dead, strings.Join(pick[:2], " "))
	}
	checkLiveCount(e, c, res)
}

// checkLiveCount: /healthz reports ingested minus deleted documents.
func checkLiveCount(e *env, c *client, res *liveResult) {
	var h struct {
		Docs int `json:"docs"`
	}
	_, err := getJSON(c, "/healthz", []int{200}, &h)
	want := res.ingested - len(res.deleted)
	e.gate(err == nil && h.Docs == want, "/healthz reports %d documents, want %d ingested minus deleted (%v)", h.Docs, want, err)
}
