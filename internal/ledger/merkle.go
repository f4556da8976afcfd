package ledger

import (
	"crypto/sha256"
	"encoding/hex"
)

// The ledger's Merkle tree is built over the content hashes of a
// batch's record payloads, with domain separation between leaves and
// interior nodes (a leaf hash can never be replayed as a node hash or
// vice versa):
//
//	content  = SHA-256(payload)
//	leaf     = SHA-256(0x00 || content)
//	node     = SHA-256(0x01 || left || right)
//
// An odd node at any level is promoted to the next level unchanged.
// Building the tree over content hashes rather than payloads means a
// batch manifest (which lists every entry's content hash) is enough to
// recompute the root and every inclusion proof without reading the
// pack — verification separates "is the committed set intact"
// (manifest vs. roots) from "are the records intact" (pack slice vs.
// content hash).

const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// contentHash is a payload's identity: the dedup test and the input
// to its Merkle leaf.
func contentHash(payload []byte) [32]byte {
	return sha256.Sum256(payload)
}

// leafHash domain-separates a content hash into a Merkle leaf.
func leafHash(content [32]byte) [32]byte {
	var buf [33]byte
	buf[0] = leafPrefix
	copy(buf[1:], content[:])
	return sha256.Sum256(buf[:])
}

// nodeHash combines two children into their parent.
func nodeHash(left, right [32]byte) [32]byte {
	var buf [65]byte
	buf[0] = nodePrefix
	copy(buf[1:], left[:])
	copy(buf[33:], right[:])
	return sha256.Sum256(buf[:])
}

// ProofStep is one level of an inclusion proof: the sibling's hash and
// which side it sits on. Steps run leaf-to-root; a level where the
// climbing node was promoted without a sibling contributes no step.
type ProofStep struct {
	// Hash is the hex-encoded sibling hash.
	Hash string `json:"h"`
	// Left reports that the sibling is the left child (the climbing
	// node is the right one).
	Left bool `json:"left,omitempty"`
}

// merkleRoot folds a batch's leaves into its root. Empty batches have
// no root (the ledger never commits one); a single leaf is its own
// root.
func merkleRoot(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		return [32]byte{}
	}
	levels := merkleLevels(leaves)
	return levels[len(levels)-1][0]
}

// merkleLevels builds the tree bottom-up: levels[0] is the leaves and
// the last level holds the root alone.
func merkleLevels(leaves [][32]byte) [][][32]byte {
	levels := [][][32]byte{leaves}
	for level := leaves; len(level) > 1; level = levels[len(levels)-1] {
		next := make([][32]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // odd node: promote
			}
		}
		levels = append(levels, next)
	}
	return levels
}

// merkleProof returns leaf i's inclusion proof: the sibling at every
// level on the way to the root.
func merkleProof(leaves [][32]byte, i int) []ProofStep {
	if i < 0 || i >= len(leaves) {
		return nil
	}
	return proofFrom(merkleLevels(leaves), i)
}

// proofFrom reads leaf i's inclusion proof off a built tree, so a batch
// audit proves every leaf for the cost of one tree.
func proofFrom(levels [][][32]byte, i int) []ProofStep {
	var proof []ProofStep
	for _, level := range levels[:len(levels)-1] {
		if sib := i ^ 1; sib < len(level) {
			proof = append(proof, ProofStep{
				Hash: hex.EncodeToString(level[sib][:]),
				Left: sib < i,
			})
		}
		i /= 2
	}
	return proof
}

// verifyProof replays a proof from a leaf and reports whether it lands
// on root. Malformed steps (bad hex, wrong length) fail verification;
// nothing panics on adversarial input — FuzzProof pins that.
func verifyProof(leaf [32]byte, proof []ProofStep, root [32]byte) bool {
	h := leaf
	for _, step := range proof {
		sib, err := hex.DecodeString(step.Hash)
		if err != nil || len(sib) != 32 {
			return false
		}
		var s [32]byte
		copy(s[:], sib)
		if step.Left {
			h = nodeHash(s, h)
		} else {
			h = nodeHash(h, s)
		}
	}
	return h == root
}

// hexHash renders a hash for manifests and reports.
func hexHash(h [32]byte) string { return hex.EncodeToString(h[:]) }

// parseHash decodes a hex hash, reporting malformed input instead of
// panicking (manifests are attacker-controlled as far as verification
// is concerned).
func parseHash(s string) ([32]byte, bool) {
	var h [32]byte
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		return h, false
	}
	copy(h[:], b)
	return h, true
}
