// Command hhmerge merges summary files produced by workers into one
// summary of the combined stream (Section 6.2 / Theorem 11), printing
// its top-k with certain bounds. Together with Summary.Encode this gives
// the full distributed pipeline: workers summarize shards, write summary
// blobs (hhcli -dump), and hhmerge aggregates them.
//
// Usage:
//
//	hhmerge -m 1000 -k 10 worker1.sum worker2.sum worker3.sum
//	curl -s http://hhserverd:8070/v1/queries/encode | hhmerge -m 1000 -
//
// "-" reads one summary blob from standard input (usable once per
// invocation), so server snapshots pipe straight in. Inputs are the
// blobs Summary.Encode writes (hhcli -dump, hhserverd's /encode
// endpoint): flat "HHSUM2" frames and windowed "HHWIN2" containers,
// uint64- or string-keyed — the key kind is sniffed per file, and one
// invocation must be all one kind (a uint64 stream and a string stream
// have no common item space to merge). Any other input is an error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	hh "repro"
)

// loaded is one input file decoded onto the unified surface: exactly
// one of u64/str is set, per the blob's sniffed key kind.
type loaded struct {
	u64 hh.Summary[uint64]
	str hh.Summary[string]
}

// load reads one summary input (a file path, or "-" for stdin) in the
// Summary.Encode format — flat "HHSUM2" frames and windowed "HHWIN2"
// containers alike, uint64- or string-keyed.
func load(path string) (loaded, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return loaded{}, err
	}
	if !bytes.HasPrefix(data, []byte("HHSUM2")) && !bytes.HasPrefix(data, []byte("HHWIN2")) {
		return loaded{}, fmt.Errorf("not a summary blob: want an HHSUM2 or HHWIN2 frame as written by Summary.Encode (hhcli -dump, hhserverd /encode)")
	}
	// A blob whose header does not sniff still decodes as uint64, so the
	// decoder reports what is wrong with it.
	if info, ok := hh.SniffBlob(data); ok && info.StringKeys {
		s, err := hh.Decode[string](bytes.NewReader(data))
		return loaded{str: s}, err
	}
	s, err := hh.Decode[uint64](bytes.NewReader(data))
	return loaded{u64: s}, err
}

// announceWindow notes a windowed input: it contributes only its
// covered suffix, or "covering mass" below would silently understate
// the producer's whole stream.
func announceWindow[K comparable](path string, s hh.Summary[K]) {
	if ws, ok := s.Window(); ok {
		fmt.Printf("%s: windowed summary (%d/%d epochs live), flattening the covered suffix of mass %.0f\n",
			path, ws.Live, ws.Epochs, ws.Covered)
	}
}

// mergeAndReport merges one homogeneous batch and prints the ranked
// top-k with certain bounds plus the Theorem 11 tail bound.
func mergeAndReport[K comparable](m, k int, summaries []hh.Summary[K]) error {
	var totalN float64
	for _, s := range summaries {
		totalN += s.N()
	}
	merged, err := hh.MergeSummaries(m, summaries...)
	if err != nil {
		return err
	}
	fmt.Printf("merged %d summaries covering mass %.0f\n", len(summaries), totalN)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\titem\testimate\tbounds [lo, hi]")
	// TopAppend guards k <= 0 itself and appends at most the stored
	// entry count, so no pre-sizing from the untrusted flag value.
	top := merged.TopAppend(nil, k)
	for i, e := range top {
		lo, hi := merged.EstimateBounds(e.Item)
		fmt.Fprintf(tw, "%d\t%v\t%.1f\t[%.1f, %.1f]\n", i+1, e.Item, e.Count, lo, hi)
	}
	tw.Flush()

	if g, ok := merged.Guarantee(); ok {
		res := hh.SummaryResidual(merged, k)
		fmt.Printf("merged k-tail error bound (Theorem 11): %.1f\n", g.Bound(m, k, res))
	}
	return nil
}

func main() {
	var (
		m = flag.Int("m", 1000, "counters in the merged summary")
		k = flag.Int("k", 10, "report the top k items")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: hhmerge [-m counters] [-k top] summary.sum... ('-' reads one blob from stdin)")
		os.Exit(2)
	}

	var u64s []hh.Summary[uint64]
	var strs []hh.Summary[string]
	stdinUsed := false
	for _, path := range flag.Args() {
		if path == "-" {
			if stdinUsed {
				fmt.Fprintln(os.Stderr, "hhmerge: '-' (stdin) may be given only once")
				os.Exit(2)
			}
			stdinUsed = true
		}
		in, err := load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhmerge: %s: %v\n", path, err)
			os.Exit(1)
		}
		if in.u64 != nil {
			announceWindow(path, in.u64)
			u64s = append(u64s, in.u64)
		} else {
			announceWindow(path, in.str)
			strs = append(strs, in.str)
		}
	}
	if len(u64s) > 0 && len(strs) > 0 {
		fmt.Fprintf(os.Stderr,
			"hhmerge: cannot merge %d uint64-keyed and %d string-keyed summaries (no common item space)\n",
			len(u64s), len(strs))
		os.Exit(1)
	}
	var err error
	if len(strs) > 0 {
		err = mergeAndReport(*m, *k, strs)
	} else {
		err = mergeAndReport(*m, *k, u64s)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhmerge: %v\n", err)
		os.Exit(1)
	}
}
