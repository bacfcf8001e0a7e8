// Package probe holds every call the benchmark makes into the layers
// under internal/: the traced run's in-process builds and replays, and
// the serial probes of single hot functions. The end-to-end driver in
// the parent package imports none of internal/ and so cannot be moved
// by a refactor there; this package is the pinned list of functions a
// refactor has to keep or re-pin (README.md lists them).
package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval. Spans of one lane under one parent
// are serial (a lane is one goroutine's worth of work), so they never
// sum past the parent; spans of different lanes may overlap.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Lane   string `json:"lane"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until WriteJSONL.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Add records a finished span and returns its id.
func (r *Recorder) Add(parent int64, name, lane string, start time.Time, dur time.Duration) int64 {
	s := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{id, parent, name, lane, s, s + dur.Nanoseconds()})
	return id
}

// Begin opens a span that End closes.
func (r *Recorder) Begin(parent int64, name, lane string) int64 {
	return r.Add(parent, name, lane, time.Now(), -1)
}

func (r *Recorder) End(id int64) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one span per line.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Validate checks the tree: every span is closed, its parent exists
// and contains it, and the children of one parent on one lane never
// sum past the parent.
func Validate(spans []Span) error {
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q never ended", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	type key struct {
		parent int64
		lane   string
	}
	sum := map[key]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %q names parent %d, which does not exist", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] is not inside its parent %d %q [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		k := key{s.Parent, s.Lane}
		sum[k] += s.End - s.Start
		if sum[k] > p.End-p.Start {
			return fmt.Errorf("children of span %d %q on lane %q sum past it", p.ID, p.Name, s.Lane)
		}
	}
	return nil
}

// interval arithmetic for the build pipeline's overlapping lanes

type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals.
func unionLen(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, end int64
	first := true
	for _, x := range iv {
		if first || x.lo > end {
			total += x.hi - x.lo
			end, first = x.hi, false
		} else if x.hi > end {
			total += x.hi - end
			end = x.hi
		}
	}
	return total
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// p50 is the median of a set of durations, in the given unit.
func p50(d []time.Duration, unit time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / float64(unit)
}

func total(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}
