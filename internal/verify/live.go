// live.go is the interleaved differential harness for the LSM-style
// live index: a seeded schedule of inserts, deletes, queries, seals
// and compactions runs against a segment.Manager while a shadow copy
// of the surviving documents is kept on the side. At every seal and
// compaction boundary (and at the end, and again after a close/reopen
// cycle) the live index is read back term-for-term and diffed against
// a serial reference index rebuilt from scratch over exactly the
// surviving documents at their original docIDs — the same ground
// truth, and the same DiffLists comparator, the batch pipeline is
// verified with.
package verify

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"

	"fastinvert/internal/parser"
	"fastinvert/internal/postings"
	"fastinvert/internal/reference"
	"fastinvert/internal/segment"
)

// LiveConfig shapes one interleaved differential run.
type LiveConfig struct {
	// Seed drives the whole schedule: document contents, operation
	// mix, and delete/query targets.
	Seed int64

	// Ops is the schedule length (<=0: 400).
	Ops int

	// Positional indexes per-occurrence positions; the reference then
	// pins them.
	Positional bool

	// SealEvery/CompactAt are passed to the manager so automatic seals
	// and background compactions interleave with the scheduled ones
	// (<=0: 25 and 4).
	SealEvery int
	CompactAt int

	// Dir receives the segment directory; empty selects a temp dir
	// removed when the run ends.
	Dir string

	// MaxDiffs caps recorded disagreements per checkpoint (<=0: 8).
	MaxDiffs int
}

// LiveCheckpoint is one boundary comparison against the serial
// rebuild.
type LiveCheckpoint struct {
	Op      int    // schedule position
	Trigger string // "seal" | "compact" | "final" | "reopen"
	Docs    int64  // surviving documents at the boundary
	Diff    *DiffReport
}

// LiveResult is the outcome of one interleaved run.
type LiveResult struct {
	Seed        int64
	Ops         int
	Inserts     int
	Deletes     int
	Queries     int
	Seals       int
	Compactions int
	QueryErrs   []string // errors observed by scheduled queries (must be empty)
	Leaked      int      // goroutines that never drained after Close
	Checkpoints []LiveCheckpoint

	// RankFallbacks counts the checkpoints at which a live tombstone
	// made rank=auto the fallback path; every checkpoint holds rank-auto
	// and rank-exhaustive to the reference scorer either way.
	RankFallbacks int
}

// OK reports whether every checkpoint agreed, no query errored, and
// no goroutine leaked.
func (r *LiveResult) OK() bool {
	if len(r.QueryErrs) > 0 || r.Leaked > 0 {
		return false
	}
	for _, c := range r.Checkpoints {
		if !c.Diff.OK() {
			return false
		}
	}
	return true
}

// Summary renders a one-run report, diff details included on failure.
func (r *LiveResult) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %d: %d ops (%d ins, %d del, %d qry), %d seals, %d compactions, %d checkpoints",
		r.Seed, r.Ops, r.Inserts, r.Deletes, r.Queries, r.Seals, r.Compactions, len(r.Checkpoints))
	fmt.Fprintf(&sb, ", rank-auto and rank-exhaustive vs reference at each (%d under tombstones)", r.RankFallbacks)
	for _, e := range r.QueryErrs {
		fmt.Fprintf(&sb, "\n  query error: %s", e)
	}
	if r.Leaked > 0 {
		fmt.Fprintf(&sb, "\n  %d goroutines leaked", r.Leaked)
	}
	for _, c := range r.Checkpoints {
		if !c.Diff.OK() {
			fmt.Fprintf(&sb, "\n  op %d (%s, %d docs): %s", c.Op, c.Trigger, c.Docs, c.Diff.String())
		}
	}
	if r.OK() {
		sb.WriteString(" — all OK")
	}
	return sb.String()
}

// liveVocab builds the seeded vocabulary. Terms are synthetic
// ("w<i>q<j>z") so the Porter stemmer leaves them alone and both
// sides of the diff normalize identically.
func liveVocab(rng *rand.Rand, n int) []string {
	vocab := make([]string, n)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%dq%dz", i, rng.Intn(97))
	}
	return vocab
}

// liveDoc samples one document: 3..14 tokens over the vocabulary,
// space-separated, with occasional repeats so TFs exceed 1.
func liveDoc(rng *rand.Rand, vocab []string) []byte {
	n := 3 + rng.Intn(12)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(vocab[rng.Intn(len(vocab))])
	}
	return []byte(sb.String())
}

// RunLive executes one interleaved differential round.
func RunLive(ctx context.Context, cfg LiveConfig) (*LiveResult, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	if cfg.SealEvery <= 0 {
		cfg.SealEvery = 25
	}
	if cfg.CompactAt <= 0 {
		cfg.CompactAt = 4
	}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "hetverify-live-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	baseline := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := liveVocab(rng, 40)
	res := &LiveResult{Seed: cfg.Seed, Ops: cfg.Ops}

	m, err := segment.Open(dir, segment.Options{
		Positional: cfg.Positional,
		SealEvery:  cfg.SealEvery,
		CompactAt:  cfg.CompactAt,
	})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			m.Close()
		}
	}()

	// shadow holds the text of every surviving document by docID; ids
	// tracks insertion order for O(1) random victim selection.
	shadow := make(map[uint32][]byte)
	var ids []uint32

	checkpoint := func(op int, trigger string) error {
		live, err := liveLists(ctx, m)
		if err != nil {
			return fmt.Errorf("verify: live read-back at op %d (%s): %w", op, trigger, err)
		}
		want, err := rebuildReference(shadow, cfg.Positional)
		if err != nil {
			return fmt.Errorf("verify: serial rebuild at op %d (%s): %w", op, trigger, err)
		}
		diff := DiffLists(trigger, live, want, cfg.MaxDiffs)
		// Ranked differential at the same boundary: rank=auto (blocks
		// over sealed segments + memtable pseudo-block, or the fallback
		// while a tombstone is live) and rank=exhaustive must each match
		// the reference scorer over the rebuild, query for query.
		rd, fellBack := liveRankDiffs(m, want, int64(len(shadow)), cfg.MaxDiffs)
		diff.Diffs = append(diff.Diffs, rd...)
		if fellBack {
			res.RankFallbacks++
		}
		res.Checkpoints = append(res.Checkpoints, LiveCheckpoint{
			Op:      op,
			Trigger: trigger,
			Docs:    int64(len(shadow)),
			Diff:    diff,
		})
		return nil
	}

	for op := 0; op < cfg.Ops; op++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch p := rng.Intn(100); {
		case p < 50: // insert
			text := liveDoc(rng, vocab)
			id, err := m.AddDocument(text)
			if err != nil {
				return nil, fmt.Errorf("verify: add at op %d: %w", op, err)
			}
			shadow[id] = text
			ids = append(ids, id)
			res.Inserts++
		case p < 65: // delete a random survivor (no-op when empty)
			if len(ids) == 0 {
				continue
			}
			i := rng.Intn(len(ids))
			id := ids[i]
			if _, alive := shadow[id]; !alive {
				continue // already deleted through another slot
			}
			if err := m.Delete(id); err != nil {
				return nil, fmt.Errorf("verify: delete doc %d at op %d: %w", id, op, err)
			}
			delete(shadow, id)
			res.Deletes++
		case p < 90: // query a random vocabulary term
			term := vocab[rng.Intn(len(vocab))]
			l, err := m.PostingsCtx(ctx, term)
			if err != nil {
				res.QueryErrs = append(res.QueryErrs,
					fmt.Sprintf("op %d: Postings(%q): %v", op, term, err))
				continue
			}
			for j := 1; j < l.Len(); j++ {
				if l.DocIDs[j] <= l.DocIDs[j-1] {
					res.QueryErrs = append(res.QueryErrs,
						fmt.Sprintf("op %d: disordered postings for %q", op, term))
					break
				}
			}
			res.Queries++
		case p < 97: // seal boundary
			if err := m.Seal(); err != nil {
				return nil, fmt.Errorf("verify: seal at op %d: %w", op, err)
			}
			res.Seals++
			if err := checkpoint(op, "seal"); err != nil {
				return nil, err
			}
		default: // compaction boundary
			if err := m.Compact(ctx); err != nil {
				return nil, fmt.Errorf("verify: compact at op %d: %w", op, err)
			}
			res.Compactions++
			if err := checkpoint(op, "compact"); err != nil {
				return nil, err
			}
		}
	}
	if err := m.LastCompactionError(); err != nil {
		return nil, fmt.Errorf("verify: background compaction: %w", err)
	}
	if err := checkpoint(cfg.Ops, "final"); err != nil {
		return nil, err
	}

	// Close seals the memtable; everything must survive a cold reopen.
	if err := m.Close(); err != nil {
		return nil, fmt.Errorf("verify: close: %w", err)
	}
	closed = true
	res.Leaked = settleGoroutines(baseline)

	m2, err := segment.Open(dir, segment.Options{Positional: cfg.Positional})
	if err != nil {
		return nil, fmt.Errorf("verify: reopen: %w", err)
	}
	m = m2
	closed = false
	if err := checkpoint(cfg.Ops, "reopen"); err != nil {
		return nil, err
	}
	if err := m.Close(); err != nil {
		return nil, fmt.Errorf("verify: close after reopen: %w", err)
	}
	closed = true
	return res, nil
}

// liveLists reads every non-empty postings list out of the live index
// through the same path queries take.
func liveLists(ctx context.Context, m *segment.Manager) (map[string]*postings.List, error) {
	out := make(map[string]*postings.List)
	for _, e := range m.Dictionary() {
		l, err := m.PostingsCtx(ctx, e.Term)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", e.Term, err)
		}
		if l.Len() == 0 {
			// Fully-deleted term not yet purged by a compaction; the
			// serial rebuild has no entry for it.
			continue
		}
		out[e.Term] = l
	}
	return out, nil
}

// rebuildReference indexes the surviving documents from scratch with
// the serial reference indexer, each at its original docID, so docID
// gaps left by deletions are preserved on both sides.
func rebuildReference(shadow map[uint32][]byte, positional bool) (map[string]*postings.List, error) {
	ids := make([]uint32, 0, len(shadow))
	for id := range shadow {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	ref := &reference.Index{Lists: make(map[string]*postings.List)}
	p := parser.New(nil)
	p.Positional = positional
	for _, id := range ids {
		blk := parser.NewBlock(0)
		p.ParseDoc(0, shadow[id], blk)
		if err := ref.AddBlock(blk, id); err != nil {
			return nil, err
		}
	}
	return ref.Lists, nil
}
