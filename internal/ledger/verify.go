package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Problem is one verification finding, localized as tightly as the
// damage allows: a record-level problem names its cell key, a
// batch-level one its sequence number.
type Problem struct {
	// Key is the damaged record's cell key ("" for batch/head-level
	// problems).
	Key string `json:"key,omitempty"`
	// Seq is the batch involved (0 for head-level problems).
	Seq uint64 `json:"seq,omitempty"`
	// Reason says what failed: "record corrupted", "record missing",
	// "root mismatch", "chain broken", "proof invalid", ...
	Reason string `json:"reason"`
}

func (p Problem) String() string {
	s := p.Reason
	if p.Seq != 0 {
		s += fmt.Sprintf(" batch=%d", p.Seq)
	}
	if p.Key != "" {
		s += fmt.Sprintf(" key=%q", p.Key)
	}
	return s
}

// VerifyReport is a full audit's outcome.
type VerifyReport struct {
	// HeadSeq/HeadRoot echo the chain tip the audit verified against.
	HeadSeq  uint64 `json:"head_seq"`
	HeadRoot string `json:"head_root,omitempty"`
	// Batches, Records, Proofs count what was checked.
	Batches int `json:"batches"`
	Records int `json:"records"`
	Proofs  int `json:"proofs"`
	// Orphans counts packs and manifests past the committed tip (torn
	// tail of a crashed commit) — tolerated, not failures.
	Orphans int `json:"orphans,omitempty"`
	// Problems is every finding, in (seq, key) order.
	Problems []Problem `json:"problems,omitempty"`
}

// OK reports a clean audit.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Verify replays the whole ledger in store: the batch chain against
// HEAD, every batch root against its recomputed Merkle tree, every
// record's slice of its batch's pack against its content hash, and
// every record's inclusion proof, recomputed from its manifest's
// leaves, against its batch root. workers bounds the parallel
// pack-hashing stage (<=0 = GOMAXPROCS). Verification never mutates
// the store, and a corrupted record is reported — with its cell key —
// rather than returned as an error, so one damaged record cannot mask
// the rest of the audit.
func Verify(store Store, workers int) (*VerifyReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &VerifyReport{}
	addProblem := func(p Problem) { rep.Problems = append(rep.Problems, p) }

	// HEAD: the chain tip everything is checked against.
	batches, err := store.List(batchPrefix)
	if err != nil {
		return nil, err
	}
	packs, err := store.List(packPrefix)
	if err != nil {
		return nil, err
	}
	headData, err := store.Get(headKey)
	switch {
	case err == ErrNotFound:
		if len(batches) > 0 {
			addProblem(Problem{Reason: "HEAD missing with committed batches present (truncated)"})
		}
		rep.Orphans = len(packs) // a first commit torn before its manifest
		return rep, nil          // empty ledger: vacuously clean
	case err != nil:
		return nil, err
	}
	var h head
	if json.Unmarshal(headData, &h) != nil || h.Schema != SchemaVersion {
		addProblem(Problem{Reason: "HEAD corrupt or wrong schema"})
		return rep, nil
	}
	rep.HeadSeq, rep.HeadRoot = h.Seq, h.Root

	// Walk the chain: recompute each batch's root, check linkage.
	prev := ""
	var audits []packAudit
	for seq := uint64(1); seq <= h.Seq; seq++ {
		m, err := readManifest(store, seq)
		if err != nil {
			reason := "batch manifest corrupt or unreadable"
			if errors.Is(err, ErrNotFound) {
				reason = "batch manifest missing (truncated)"
			}
			addProblem(Problem{Seq: seq, Reason: reason})
			prev = "" // linkage beyond a hole is unverifiable; keep scanning roots
			continue
		}
		rep.Batches++
		if prev != "" && m.Prev != prev {
			addProblem(Problem{Seq: seq, Reason: "chain broken (prev root mismatch)"})
		}
		a := packAudit{m: m, content: make([][32]byte, len(m.Entries)), valid: make([]bool, len(m.Entries))}
		leaves := make([][32]byte, len(m.Entries))
		ok := true
		for i, e := range m.Entries {
			if a.content[i], a.valid[i] = parseHash(e.Hash); !a.valid[i] {
				addProblem(Problem{Seq: seq, Key: e.Key, Reason: "manifest entry hash corrupt"})
				ok = false
				continue
			}
			leaves[i] = leafHash(a.content[i])
		}
		if ok {
			levels := merkleLevels(leaves)
			if top := levels[len(levels)-1]; len(top) == 1 && hexHash(top[0]) == m.Root {
				a.levels = levels
			} else {
				addProblem(Problem{Seq: seq, Reason: "root mismatch (manifest root does not match its entries)"})
			}
		}
		audits = append(audits, a)
		prev = m.Root
	}
	if prev != "" && prev != h.Root {
		addProblem(Problem{Seq: h.Seq, Reason: "HEAD root does not match last batch"})
	}
	rep.Orphans = pastTip(batches, batchPrefix, h.Seq) + pastTip(packs, packPrefix, h.Seq)

	// Packs: cut and hash every committed batch's records, in parallel.
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan packAudit)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range next {
				records, proofs, found := a.check(store)
				mu.Lock()
				rep.Records += records
				rep.Proofs += proofs
				rep.Problems = append(rep.Problems, found...)
				mu.Unlock()
			}
		}()
	}
	for _, a := range audits {
		next <- a
	}
	close(next)
	wg.Wait()

	sort.Slice(rep.Problems, func(a, b int) bool {
		if rep.Problems[a].Seq != rep.Problems[b].Seq {
			return rep.Problems[a].Seq < rep.Problems[b].Seq
		}
		return rep.Problems[a].Key < rep.Problems[b].Key
	})
	return rep, nil
}

// pastTip counts the keys under prefix whose seq lies past the
// committed tip: the torn tail of a crashed commit.
func pastTip(keys []string, prefix string, tip uint64) int {
	n := 0
	for _, k := range keys {
		var seq uint64
		if _, err := fmt.Sscanf(k, prefix+"%d", &seq); err == nil && seq > tip {
			n++
		}
	}
	return n
}

// packAudit is one committed batch as the chain walk left it: its
// manifest, each entry's content hash and whether it parsed, and the
// batch's tree when the manifest's root matched its entries (nil
// otherwise; the batch's proofs then go unchecked, since the root
// mismatch is already reported).
type packAudit struct {
	m       manifest
	content [][32]byte
	valid   []bool
	levels  [][][32]byte
}

// check reads the batch's pack and hashes each entry's slice against
// its content hash, localizing damage to the entry whose bytes (or
// trailing newline) it hit, and checks each entry's inclusion proof.
func (a packAudit) check(store Store) (records, proofs int, found []Problem) {
	seq := a.m.Seq
	pack, err := store.Get(packKey(seq)) // a missing pack cuts off every record
	if err != nil && !errors.Is(err, ErrNotFound) {
		return 0, 0, []Problem{{Seq: seq, Reason: "pack unreadable: " + err.Error()}}
	}
	var root [32]byte
	if a.levels != nil {
		root = a.levels[len(a.levels)-1][0]
	}
	off := 0 // where entry i's slice starts; past the end once one is cut off
	for i, e := range a.m.Entries {
		start, cut := off, e.Len >= len(pack)-off // payload or its '\n' missing
		if cut {
			off = len(pack) + 1
		} else {
			off += e.Len + 1
		}
		if !a.valid[i] {
			continue // reported by the chain walk
		}
		records++
		switch {
		case cut:
			found = append(found, Problem{Key: e.Key, Seq: seq, Reason: "record missing (truncated)"})
		case pack[start+e.Len] != '\n' || contentHash(pack[start:start+e.Len]) != a.content[i]:
			found = append(found, Problem{Key: e.Key, Seq: seq, Reason: "record corrupted (content hash mismatch)"})
		}
		if a.levels != nil {
			proofs++
			if !verifyProof(a.levels[0][i], proofFrom(a.levels, i), root) {
				found = append(found, Problem{Key: e.Key, Seq: seq, Reason: "inclusion proof invalid"})
			}
		}
	}
	if off < len(pack) {
		found = append(found, Problem{Seq: seq, Reason: fmt.Sprintf("pack holds %d bytes past its last record", len(pack)-off)})
	}
	return records, proofs, found
}
