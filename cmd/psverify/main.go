// Command psverify audits a parastack results ledger: it replays every
// batch's Merkle root from its manifest, walks the root chain up to
// HEAD, re-hashes every committed record's slice of its batch's pack
// against the manifest's content hash, and checks every record's
// inclusion proof, recomputed from the manifest, against its batch
// root — so any torn write, truncation, or single-bit flip anywhere in
// the ledger is reported, localized to the damaged record's cell key
// when the damage is record-level.
//
// Usage:
//
//	psverify -out /path/to/ledger             # audit, print head root
//	psverify -out /path/to/ledger -workers 8  # parallel record hashing
//	psverify -out /path/to/ledger -v          # also list per-batch roots
//
// Flag conventions match pssweep: -out names the artifact directory (a
// ledger written by `pssweep -ledger DIR` or `parastackd -ledger
// DIR`), -workers bounds parallelism (default GOMAXPROCS). Exit codes:
// 0 = ledger verifies clean, 1 = verification problems or an audit
// error, 2 = usage.
//
// A clean run prints the head root; note it somewhere the ledger's
// writer cannot touch and later runs prove the tail was never
// rewritten. See the "Verifying and deduplicating results" section of
// README.md and the ledger schema entry of EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"parastack/internal/ledger"
)

func main() { os.Exit(run()) }

// run is main behind an exit code so deferred cleanups (the store
// handle) execute on every exit path.
func run() int {
	out := flag.String("out", "", "ledger directory to verify (as written by pssweep -ledger / parastackd -ledger; required)")
	workers := flag.Int("workers", 0, "parallel record-verification workers (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print per-batch detail")
	flag.Parse()

	if *out == "" {
		flag.Usage()
		return 2
	}
	if fi, err := os.Stat(*out); err != nil || !fi.IsDir() {
		fmt.Fprintf(os.Stderr, "psverify: %s is not a ledger directory\n", *out)
		return 1
	}

	store, err := ledger.OpenDirStore(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psverify:", err)
		return 1
	}
	defer store.Close()

	rep, err := ledger.Verify(store, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psverify:", err)
		return 1
	}

	if *verbose {
		fmt.Printf("psverify: head seq=%d root=%s\n", rep.HeadSeq, rep.HeadRoot)
		if rep.Orphans > 0 {
			fmt.Printf("psverify: %d orphan blob(s) past the committed tip (torn tail, tolerated)\n", rep.Orphans)
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "psverify: %s\n", p)
	}
	if !rep.OK() {
		fmt.Fprintf(os.Stderr, "psverify: FAILED — %d problem(s) across %d batch(es), %d record(s), %d proof(s)\n",
			len(rep.Problems), rep.Batches, rep.Records, rep.Proofs)
		return 1
	}
	fmt.Printf("psverify: OK — %d batch(es), %d record(s), %d proof(s) verified (head root %s)\n",
		rep.Batches, rep.Records, rep.Proofs, rep.HeadRoot)
	return 0
}
