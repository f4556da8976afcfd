package ledger

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// slot is where one record lives: its batch, and its payload's offset
// and length in that batch's pack.
type slot struct {
	seq      uint64
	off, len int
}

// buildLedger commits n records into a fresh MemStore and returns the
// store plus each key's slot, read back from the manifests.
func buildLedger(t *testing.T, n int) (*MemStore, map[string]slot) {
	t.Helper()
	store := NewMemStore()
	led, err := Open(store, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := led.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	slots := make(map[string]slot, n)
	for seq := uint64(1); seq <= led.Seq(); seq++ {
		m, err := led.manifestAt(seq)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for _, e := range m.Entries {
			slots[e.Key] = slot{seq: seq, off: off, len: e.Len}
			off += e.Len + 1
		}
	}
	if len(slots) != n {
		t.Fatalf("manifests hold %d keys, want %d", len(slots), n)
	}
	return store, slots
}

// keysOf returns the keys of batch seq, in leaf order.
func keysOf(slots map[string]slot, seq uint64) []string {
	var keys []string
	for k, s := range slots {
		if s.seq == seq {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return slots[keys[a]].off < slots[keys[b]].off })
	return keys
}

// The corruption table: flip one bit of every committed record's slice
// of its pack, at several byte offsets and bit positions, and require
// Verify to flag exactly that record's cell key — damage is localized,
// never smeared across the audit or silently absorbed.
func TestVerifyLocalizesSingleBitFlips(t *testing.T) {
	const n = 9 // crosses batch boundaries at BatchSize 4
	store, slots := buildLedger(t, n)

	if rep, err := Verify(store, 0); err != nil || !rep.OK() {
		t.Fatalf("baseline not clean: %v, %v", rep.Problems, err)
	}

	flips := []struct {
		byteOff int
		bit     uint
	}{
		{0, 0},  // first byte, low bit
		{0, 7},  // first byte, high bit
		{5, 3},  // mid-payload
		{-1, 0}, // sentinel: last byte (resolved per record below)
	}
	for key, s := range slots {
		pack := packKey(s.seq)
		for _, f := range flips {
			off := f.byteOff
			if off < 0 {
				off = s.len - 1
			}
			if err := store.Corrupt(pack, s.off+off, f.bit); err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(store, 2)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() {
				t.Fatalf("bit flip (%q, byte %d, bit %d) not detected", key, off, f.bit)
			}
			if len(rep.Problems) != 1 {
				t.Fatalf("flip should localize to one problem, got %v", rep.Problems)
			}
			p := rep.Problems[0]
			if p.Key != key {
				t.Fatalf("flip in %q blamed on key %q", key, p.Key)
			}
			if !strings.Contains(p.Reason, "corrupted") {
				t.Fatalf("unexpected reason %q", p.Reason)
			}
			if !strings.Contains(p.String(), `key="`+key+`"`) {
				t.Fatalf("Problem.String() %q does not name the cell key", p.String())
			}
			// Undo: the same flip restores the pack, so each table row
			// tests exactly one damaged bit.
			if err := store.Corrupt(pack, s.off+off, f.bit); err != nil {
				t.Fatal(err)
			}
		}
	}

	if rep, err := Verify(store, 0); err != nil || !rep.OK() {
		t.Fatalf("not clean after undoing all flips: %v, %v", rep.Problems, err)
	}
}

// A deleted pack is reported as truncation naming every key of its
// batch; a truncated pack names exactly the keys whose bytes (or
// trailing newline) it cut off.
func TestVerifyMissingRecord(t *testing.T) {
	missing := func(t *testing.T, rep *VerifyReport) []string {
		t.Helper()
		var keys []string
		for _, p := range rep.Problems {
			if !strings.Contains(p.Reason, "missing") || p.Key == "" {
				t.Fatalf("unexpected problem %v", p)
			}
			keys = append(keys, p.Key)
		}
		return keys
	}

	t.Run("deleted pack", func(t *testing.T) {
		store, slots := buildLedger(t, 5)
		store.mu.Lock()
		delete(store.blobs, packKey(1))
		store.mu.Unlock()

		rep, err := Verify(store, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := keysOf(slots, 1)
		sort.Strings(want)
		if got := missing(t, rep); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("deleted pack 1: missing keys %v, want batch 1's %v", got, want)
		}
	})

	t.Run("truncated pack", func(t *testing.T) {
		store, slots := buildLedger(t, 8)
		keys := keysOf(slots, 2)
		if len(keys) < 3 {
			t.Fatalf("batch 2 holds %d keys, need 3", len(keys))
		}
		// Cut mid-way through batch 2's second record: it and every
		// later record of the batch are gone, the first one is intact.
		cut := slots[keys[1]].off + slots[keys[1]].len/2
		store.mu.Lock()
		store.blobs[packKey(2)] = store.blobs[packKey(2)][:cut]
		store.mu.Unlock()

		rep, err := Verify(store, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]string(nil), keys[1:]...)
		sort.Strings(want)
		if got := missing(t, rep); !reflect.DeepEqual(got, want) {
			t.Fatalf("truncated pack 2: missing keys %v, want %v", got, want)
		}
	})
}

// A corrupted batch manifest is a batch-level problem; a tampered
// manifest with valid JSON but altered entries breaks the root.
func TestVerifyManifestTamper(t *testing.T) {
	store, _ := buildLedger(t, 8) // two batches

	// Flip a bit inside the batch-1 manifest JSON.
	if err := store.Corrupt(batchKey(1), 40, 2); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("manifest bit flip not detected")
	}
	hit := false
	for _, p := range rep.Problems {
		if p.Seq == 1 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("manifest damage not attributed to batch 1: %v", rep.Problems)
	}
}

// HEAD missing while batches exist is truncation, not a clean ledger.
func TestVerifyHeadTruncation(t *testing.T) {
	store, _ := buildLedger(t, 4)
	store.mu.Lock()
	delete(store.blobs, headKey)
	store.mu.Unlock()

	rep, err := Verify(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("missing HEAD with committed batches passed verification")
	}
}

// An empty store is vacuously clean.
func TestVerifyEmpty(t *testing.T) {
	rep, err := Verify(NewMemStore(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Batches != 0 || rep.Records != 0 {
		t.Fatalf("empty store: %+v", rep)
	}
}
