// Command indexquery looks up terms in an index built by hetindex,
// applying the same normalization (lowercasing + Porter stemming) the
// indexer applied, and prints each term's postings list. With -range
// it fetches only the partial lists overlapping a docID range — the
// per-run output format's fast path (§III.F).
//
// Usage:
//
//	indexquery -index ./index parallelize gpu throughput
//	indexquery -index ./index -range 100:200 parallel
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"fastinvert"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("indexquery: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command: it parses args, opens the index and prints each
// term's postings to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("indexquery", flag.ExitOnError)
	var (
		indexDir = fs.String("index", "", "index directory (required)")
		docRange = fs.String("range", "", "restrict to docID range lo:hi")
		maxShow  = fs.Int("n", 10, "max postings to print per term")
		locate   = fs.Bool("locate", false, "resolve matching docIDs to source file locations (doc table)")
		prefix   = fs.String("prefix", "", "list indexed terms with this prefix instead of querying")
	)
	fs.Parse(args)
	if *indexDir == "" || (fs.NArg() == 0 && *prefix == "") {
		return errors.New("usage: indexquery -index DIR [-range lo:hi] [-locate] term... | -prefix p")
	}
	idx, err := fastinvert.Open(*indexDir)
	if err != nil {
		return err
	}
	defer idx.Close()
	fmt.Fprintf(w, "index: %d terms, %d runs\n", idx.Terms(), len(idx.Runs()))

	if *prefix != "" {
		s := fastinvert.NewSearcher(idx)
		for _, term := range s.MatchPrefix(*prefix, *maxShow) {
			fmt.Fprintln(w, " ", term)
		}
		return nil
	}

	lo, hi := uint32(0), ^uint32(0)
	if *docRange != "" {
		parts := strings.SplitN(*docRange, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -range %q, want lo:hi", *docRange)
		}
		l, err1 := strconv.ParseUint(parts[0], 10, 32)
		h, err2 := strconv.ParseUint(parts[1], 10, 32)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad -range %q", *docRange)
		}
		lo, hi = uint32(l), uint32(h)
	}

	for _, raw := range fs.Args() {
		term := fastinvert.NormalizeTerm(raw)
		list, err := idx.PostingsRange(term, lo, hi)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%q -> %q: %d postings", raw, term, list.Len())
		if list.Len() == 0 {
			fmt.Fprintln(w)
			continue
		}
		fmt.Fprint(w, " [")
		for i := 0; i < list.Len() && i < *maxShow; i++ {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprintf(w, "%d:%d", list.DocIDs[i], list.TFs[i])
		}
		if list.Len() > *maxShow {
			fmt.Fprintf(w, " ... +%d more", list.Len()-*maxShow)
		}
		fmt.Fprintln(w, "]")
		if *locate {
			for i := 0; i < list.Len() && i < *maxShow; i++ {
				if file, off, n, ok := idx.DocLocation(list.DocIDs[i]); ok {
					fmt.Fprintf(w, "    doc %d -> %s @%d (+%d bytes)\n",
						list.DocIDs[i], file, off, n)
				}
			}
		}
	}
	return nil
}
