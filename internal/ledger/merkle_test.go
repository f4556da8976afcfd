package ledger

import (
	"encoding/json"
	"fmt"
	"testing"
)

// testLeaves builds n deterministic leaves (and their content hashes).
func testLeaves(n int) ([][32]byte, [][32]byte) {
	contents := make([][32]byte, n)
	leaves := make([][32]byte, n)
	for i := range contents {
		contents[i] = contentHash([]byte(fmt.Sprintf("payload-%d", i)))
		leaves[i] = leafHash(contents[i])
	}
	return contents, leaves
}

// Every proof of every leaf must replay to the root, across tree sizes
// covering the empty, single, even, odd, and power-of-two shapes.
func TestMerkleProofRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 64, 65} {
		_, leaves := testLeaves(n)
		root := merkleRoot(leaves)
		for i := 0; i < n; i++ {
			proof := merkleProof(leaves, i)
			if !verifyProof(leaves[i], proof, root) {
				t.Errorf("n=%d leaf=%d: proof does not verify", n, i)
			}
			// The same proof must not verify any other leaf.
			other := leaves[(i+1)%n]
			if n > 1 && verifyProof(other, proof, root) {
				t.Errorf("n=%d leaf=%d: proof verifies the wrong leaf", n, i)
			}
		}
	}
}

func TestMerkleRootEmptyAndSingle(t *testing.T) {
	if merkleRoot(nil) != ([32]byte{}) {
		t.Error("empty batch should have the zero root")
	}
	_, leaves := testLeaves(1)
	if merkleRoot(leaves) != leaves[0] {
		t.Error("a single leaf should be its own root")
	}
	if got := merkleProof(leaves, 0); len(got) != 0 {
		t.Errorf("single-leaf proof should be empty, got %d steps", len(got))
	}
}

// Domain separation: a leaf hash and a node hash over the same bytes
// must differ, so an interior node can never be replayed as a leaf.
func TestMerkleDomainSeparation(t *testing.T) {
	c := contentHash([]byte("x"))
	if leafHash(c) == c {
		t.Error("leafHash must not be the identity")
	}
	l, r := leafHash(c), leafHash(contentHash([]byte("y")))
	parent := nodeHash(l, r)
	if parent == leafHash(parent) {
		t.Error("node and leaf domains collide")
	}
}

// Root sensitivity: reordering or substituting any leaf changes the root.
func TestMerkleRootSensitivity(t *testing.T) {
	_, leaves := testLeaves(5)
	root := merkleRoot(leaves)

	swapped := append([][32]byte(nil), leaves...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if merkleRoot(swapped) == root {
		t.Error("swapping leaves did not change the root")
	}

	for i := range leaves {
		mutated := append([][32]byte(nil), leaves...)
		mutated[i] = leafHash(contentHash([]byte("evil")))
		if merkleRoot(mutated) == root {
			t.Errorf("substituting leaf %d did not change the root", i)
		}
	}
}

// Malformed proof steps (bad hex, truncated hashes) must fail
// verification without panicking.
func TestVerifyProofMalformed(t *testing.T) {
	_, leaves := testLeaves(4)
	root := merkleRoot(leaves)
	good := merkleProof(leaves, 2)

	bad := append([]ProofStep(nil), good...)
	bad[0].Hash = "zz-not-hex"
	if verifyProof(leaves[2], bad, root) {
		t.Error("bad hex verified")
	}
	bad = append([]ProofStep(nil), good...)
	bad[0].Hash = bad[0].Hash[:10] // truncated
	if verifyProof(leaves[2], bad, root) {
		t.Error("truncated hash verified")
	}
	bad = append([]ProofStep(nil), good...)
	bad[len(bad)-1].Left = !bad[len(bad)-1].Left // flipped side
	if verifyProof(leaves[2], bad, root) {
		t.Error("flipped sibling side verified")
	}
	if verifyProof(leaves[2], nil, root) {
		t.Error("empty proof verified a multi-leaf root")
	}
}

func TestParseHash(t *testing.T) {
	h := contentHash([]byte("round-trip"))
	got, ok := parseHash(hexHash(h))
	if !ok || got != h {
		t.Error("hexHash/parseHash round trip failed")
	}
	for _, s := range []string{"", "xyz", "abcd", hexHash(h) + "00"} {
		if _, ok := parseHash(s); ok {
			t.Errorf("parseHash(%q) accepted malformed input", s)
		}
	}
}

// indexEntry is the serialized shape of one record's inclusion proof,
// as a single-record auditor would be handed it: which batch and leaf,
// the content hash, and the sibling path. The ledger recomputes proofs
// from manifests instead of storing them; FuzzProof decodes adversarial
// bytes into this shape to reach the proof path.
type indexEntry struct {
	Schema string      `json:"schema"`
	Key    string      `json:"key"`
	Seq    uint64      `json:"seq"`
	Leaf   int         `json:"leaf"`
	Hash   string      `json:"hash"`
	Proof  []ProofStep `json:"proof"`
}

// FuzzProof pins the no-panic contract of the proof path against
// adversarial serialized index entries: whatever bytes arrive, parsing
// and verification must return cleanly. Wired into `make fuzz-smoke`.
func FuzzProof(f *testing.F) {
	_, leaves := testLeaves(4)
	root := merkleRoot(leaves)
	goodEntry := indexEntry{
		Schema: SchemaVersion,
		Key:    "w|p|f|seed=1",
		Seq:    1,
		Leaf:   2,
		Hash:   hexHash(contentHash([]byte("payload-2"))),
		Proof:  merkleProof(leaves, 2),
	}
	seed, _ := json.Marshal(goodEntry)
	f.Add(seed)
	f.Add([]byte(`{"schema":"parastack-ledger/v1","proof":[{"h":"zz"}]}`))
	f.Add([]byte(`{"proof":[{"h":"00","left":true},{"h":""}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var e indexEntry
		if json.Unmarshal(data, &e) != nil {
			return
		}
		content, ok := parseHash(e.Hash)
		if !ok {
			return
		}
		// Must never panic, whatever the proof contains.
		verifyProof(leafHash(content), e.Proof, root)
	})
}
