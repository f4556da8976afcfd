package ledger

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"parastack/internal/results"
)

// forEachStore runs the conformance body once per Store backend — the
// cross-backend suite every implementation must pass. A new backend
// (object store, ...) earns its keep by adding one line here.
func forEachStore(t *testing.T, body func(t *testing.T, store Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		s := NewMemStore()
		defer s.Close()
		body(t, s)
	})
	t.Run("dir", func(t *testing.T) {
		s, err := OpenDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		body(t, s)
	})
}

// testRecord builds a deterministic keyed record.
func testRecord(i int) results.Record {
	return results.Record{
		Key:     fmt.Sprintf("w%d|tardis|computation|seed=%d", i%3, i),
		Payload: []byte(fmt.Sprintf(`{"key":"w%d|tardis|computation|seed=%d","detected":true,"n":%d}`, i%3, i, i)),
	}
}

// smallOpts forces frequent commits so tests cross batch boundaries.
func smallOpts() Options { return Options{BatchSize: 4} }

// Store-level conformance: Put/Get/Has/List semantics.
func TestStoreConformance(t *testing.T) {
	forEachStore(t, func(t *testing.T, store Store) {
		if _, err := store.Get("nope"); err != ErrNotFound {
			t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
		}
		if ok, err := store.Has("nope"); err != nil || ok {
			t.Fatalf("Has(missing) = %v, %v", ok, err)
		}
		if err := store.Put("a/1", []byte("one")); err != nil {
			t.Fatal(err)
		}
		if err := store.Put("a/2", []byte("two")); err != nil {
			t.Fatal(err)
		}
		if err := store.Put("b/1", []byte("three")); err != nil {
			t.Fatal(err)
		}
		if err := store.Put("a/1", []byte("one-v2")); err != nil {
			t.Fatal(err) // overwrite
		}
		data, err := store.Get("a/1")
		if err != nil || string(data) != "one-v2" {
			t.Fatalf("Get after overwrite = %q, %v", data, err)
		}
		keys, err := store.List("a/")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 2 || keys[0] != "a/1" || keys[1] != "a/2" {
			t.Fatalf("List(a/) = %v", keys)
		}
	})
}

// Ledger conformance: append → close → reopen → read back, proofs and
// roots verifying clean, across backends.
func TestLedgerAppendReadVerify(t *testing.T) {
	forEachStore(t, func(t *testing.T, store Store) {
		led, err := Open(store, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		const n = 10 // BatchSize 4 → two full batches + one partial
		want := make([]results.Record, n)
		for i := range want {
			want[i] = testRecord(i)
			if err := led.Append(want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
		if led.Seq() != 3 {
			t.Fatalf("Seq = %d, want 3 batches", led.Seq())
		}
		root := led.HeadRoot()
		if root == "" {
			t.Fatal("HeadRoot empty after commits")
		}

		// Reopen: records replay in append order, byte-identical.
		led2, err := Open(store, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer led2.Close()
		if led2.HeadRoot() != root {
			t.Fatalf("reopened root %s != %s", led2.HeadRoot(), root)
		}
		got, err := led2.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("Records = %d, want %d", len(got), n)
		}
		for i := range got {
			if got[i].Key != want[i].Key || string(got[i].Payload) != string(want[i].Payload) {
				t.Fatalf("record %d mismatch: %+v", i, got[i])
			}
		}
		for _, r := range want {
			if !led2.Has(r.Key) {
				t.Fatalf("Has(%q) false after reopen", r.Key)
			}
			payload, err := led2.Get(r.Key)
			if err != nil || string(payload) != string(r.Payload) {
				t.Fatalf("Get(%q) = %q, %v", r.Key, payload, err)
			}
		}

		// Full audit: every root, blob, and inclusion proof.
		rep, err := Verify(store, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("Verify problems: %v", rep.Problems)
		}
		if rep.Batches != 3 || rep.Records != n || rep.Proofs == 0 {
			t.Fatalf("Verify counts: %+v", rep)
		}
		if rep.HeadRoot != root {
			t.Fatalf("Verify head root %s != %s", rep.HeadRoot, root)
		}
	})
}

// Append after Close must return the shared results.ErrClosed; Close
// must be idempotent.
func TestLedgerWriteAfterClose(t *testing.T) {
	forEachStore(t, func(t *testing.T, store Store) {
		led, err := Open(store, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := led.Append(testRecord(0)); err != nil {
			t.Fatal(err)
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
		if err := led.Append(testRecord(1)); err != results.ErrClosed {
			t.Fatalf("Append after Close = %v, want results.ErrClosed", err)
		}
		if err := led.Close(); err != nil {
			t.Fatalf("second Close = %v, want nil", err)
		}
	})
}

// Identical (key, payload) re-appends are dedup hits — counted, not
// re-stored; a differing payload for the same key is last-wins.
func TestLedgerDedupAndLastWins(t *testing.T) {
	forEachStore(t, func(t *testing.T, store Store) {
		led, err := Open(store, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		rec := testRecord(0)
		for i := 0; i < 3; i++ {
			if err := led.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		st := led.LedgerStats()
		if st.Appends != 1 || st.DedupHits != 2 {
			t.Fatalf("stats after re-appends: %+v", st)
		}

		// Dedup survives reopen: the index reloads the key map.
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
		led, err = Open(store, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !led.Has(rec.Key) {
			t.Fatal("Has lost the key across reopen")
		}
		if err := led.Append(rec); err != nil {
			t.Fatal(err)
		}
		if st := led.LedgerStats(); st.DedupHits != 1 || st.Appends != 0 {
			t.Fatalf("stats after reopen re-append: %+v", st)
		}

		// Last-wins: same key, new payload.
		v2 := results.Record{Key: rec.Key, Payload: []byte(`{"v":2}`)}
		if err := led.Append(v2); err != nil {
			t.Fatal(err)
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
		led, err = Open(store, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer led.Close()
		payload, err := led.Get(rec.Key)
		if err != nil || string(payload) != `{"v":2}` {
			t.Fatalf("Get after rewrite = %q, %v", payload, err)
		}
		rep, err := Verify(store, 0)
		if err != nil || !rep.OK() {
			t.Fatalf("Verify after rewrite: %v, %v", rep.Problems, err)
		}
	})
}

// Flush makes everything appended before it committed and readable
// without closing the ledger.
func TestLedgerFlush(t *testing.T) {
	forEachStore(t, func(t *testing.T, store Store) {
		led, err := Open(store, Options{BatchSize: 1000}) // deadline/flush only
		if err != nil {
			t.Fatal(err)
		}
		defer led.Close()
		for i := 0; i < 3; i++ {
			if err := led.Append(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := led.Flush(); err != nil {
			t.Fatal(err)
		}
		recs, err := led.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 {
			t.Fatalf("Records after Flush = %d, want 3", len(recs))
		}
	})
}

// Torn tail, window 1: pack written, no manifest. Open tolerates the
// orphans; Verify counts them without failing.
func TestLedgerTornTailOrphanBlobs(t *testing.T) {
	forEachStore(t, func(t *testing.T, store Store) {
		led, err := Open(store, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := led.Append(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}

		// Simulate the crash window: a manifest for seq+1 landed but is
		// torn (unparseable), plus a stray pack for seq+1.
		if err := store.Put(batchKey(2), []byte(`{"schema":"parastack-ledg`)); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(packKey(2), []byte("orphan\n")); err != nil {
			t.Fatal(err)
		}

		led, err = Open(store, smallOpts())
		if err != nil {
			t.Fatalf("Open with torn tail: %v", err)
		}
		if led.Seq() != 1 {
			t.Fatalf("Seq = %d, want 1 (torn manifest not adopted)", led.Seq())
		}
		defer led.Close()

		rep, err := Verify(store, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("torn tail should be tolerated, got %v", rep.Problems)
		}
		if rep.Orphans == 0 {
			t.Fatal("orphan blobs past the tip not counted")
		}
	})
}

// Torn tail, window 2: a batch committed fully except HEAD. Open rolls
// it forward — the batch's records reappear and the chain re-heads.
func TestLedgerRollForward(t *testing.T) {
	forEachStore(t, func(t *testing.T, store Store) {
		led, err := Open(store, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ { // two full batches
			if err := led.Append(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
		if led.Seq() != 2 {
			t.Fatalf("Seq = %d, want 2", led.Seq())
		}
		finalRoot := led.HeadRoot()

		// Rewind HEAD to batch 1 — exactly the state a crash between the
		// batch-2 manifest and its HEAD write leaves behind.
		m1, err := led.manifestAt(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := led.writeHead(1, m1.Root); err != nil {
			t.Fatal(err)
		}

		led2, err := Open(store, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer led2.Close()
		if led2.Seq() != 2 || led2.HeadRoot() != finalRoot {
			t.Fatalf("roll-forward: seq=%d root=%s, want seq=2 root=%s",
				led2.Seq(), led2.HeadRoot(), finalRoot)
		}
		recs, err := led2.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 8 {
			t.Fatalf("Records after roll-forward = %d, want 8", len(recs))
		}
		rep, err := Verify(store, 0)
		if err != nil || !rep.OK() {
			t.Fatalf("Verify after roll-forward: %v, %v", rep.Problems, err)
		}
	})
}

// countingStore records every Put and Get key that reaches the store
// it wraps.
type countingStore struct {
	Store
	mu   sync.Mutex
	puts []string
	gets []string
}

func (c *countingStore) Put(key string, data []byte) error {
	c.mu.Lock()
	c.puts = append(c.puts, key)
	c.mu.Unlock()
	return c.Store.Put(key, data)
}

func (c *countingStore) Get(key string) ([]byte, error) {
	c.mu.Lock()
	c.gets = append(c.gets, key)
	c.mu.Unlock()
	return c.Store.Get(key)
}

// reset returns the keys put and got since the last reset.
func (c *countingStore) reset() (puts, gets []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	puts, gets = c.puts, c.gets
	c.puts, c.gets = nil, nil
	return puts, gets
}

// A batch of any size commits in three Puts — pack, manifest, HEAD —
// and Open reads HEAD and every manifest (plus the roll-forward probe
// of the next seq), never a pack.
func TestLedgerWriteCounts(t *testing.T) {
	forEachStore(t, func(t *testing.T, store Store) {
		cs := &countingStore{Store: store}
		led, err := Open(cs, Options{BatchSize: 1000}) // Flush-driven commits
		if err != nil {
			t.Fatal(err)
		}
		cs.reset()
		i := 0
		for seq, b := range []int{1, 5, 64} {
			for j := 0; j < b; j++ {
				if err := led.Append(testRecord(i)); err != nil {
					t.Fatal(err)
				}
				i++
			}
			if err := led.Flush(); err != nil {
				t.Fatal(err)
			}
			s := uint64(seq + 1)
			want := []string{packKey(s), batchKey(s), headKey}
			if puts, _ := cs.reset(); !reflect.DeepEqual(puts, want) {
				t.Fatalf("batch of %d: puts %v, want %v", b, puts, want)
			}
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}

		cs.reset()
		led, err = Open(cs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer led.Close()
		puts, gets := cs.reset()
		want := []string{headKey, batchKey(1), batchKey(2), batchKey(3), batchKey(4)}
		if len(puts) != 0 || !reflect.DeepEqual(gets, want) {
			t.Fatalf("Open over 3 batches: puts %v, gets %v, want no puts and gets %v", puts, gets, want)
		}
		if !led.Has(testRecord(0).Key) || !led.Has(testRecord(i-1).Key) {
			t.Fatal("Open did not index the committed keys")
		}
	})
}

// crashStore models a crash at the n-th Put: that Put and every later
// write fail without reaching the store it wraps.
type crashStore struct {
	Store
	mu      sync.Mutex
	n, puts int
}

func (c *crashStore) Put(key string, data []byte) error {
	c.mu.Lock()
	c.puts++
	crashed := c.puts >= c.n
	c.mu.Unlock()
	if crashed {
		return fmt.Errorf("crashed at put %d (%s)", c.n, key)
	}
	return c.Store.Put(key, data)
}

// The commit path, walked exhaustively: crash at every Put of three
// commits, reopen, and require the ledger to hold exactly the batches
// whose manifest landed, audit clean, and commit over the torn tail.
func TestLedgerCommitCrashWalk(t *testing.T) {
	sizes := []int{2, 3, 1} // records per commit; each commit is 3 Puts
	var batches [][]results.Record
	i := 0
	for _, b := range sizes {
		var recs []results.Record
		for j := 0; j < b; j++ {
			recs = append(recs, testRecord(i))
			i++
		}
		batches = append(batches, recs)
	}
	extra := testRecord(i)

	for n := 1; n <= 3*len(sizes)+1; n++ {
		store := NewMemStore()
		led, err := Open(&crashStore{Store: store, n: n}, Options{BatchSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		for _, recs := range batches {
			for _, r := range recs {
				led.Append(r) // fails once a commit has crashed; that is the point
			}
			led.Flush()
		}
		led.Close()

		// Batch k's manifest is Put 3k-1; a crash at its HEAD Put (3k)
		// is rolled forward, a crash at its pack or manifest is not.
		landed := 0
		for k := 1; k <= len(sizes) && 3*k-1 < n; k++ {
			landed = k
		}
		var want []results.Record
		for _, recs := range batches[:landed] {
			want = append(want, recs...)
		}
		orphans := 0
		if n <= 3*len(sizes) && n%3 == 2 {
			orphans = 1 // the pack of the batch whose manifest crashed
		}

		led, err = Open(store, Options{BatchSize: 1000})
		if err != nil {
			t.Fatalf("crash at put %d: Open: %v", n, err)
		}
		if got := led.Seq(); got != uint64(landed) {
			t.Fatalf("crash at put %d: Seq = %d, want %d", n, got, landed)
		}
		checkRecords(t, n, led, want)
		rep, err := Verify(store, 1)
		if err != nil || !rep.OK() || rep.Orphans != orphans || rep.Records != len(want) {
			t.Fatalf("crash at put %d: Verify %+v, %v; want OK, %d orphans, %d records", n, rep, err, orphans, len(want))
		}

		if err := led.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := led.Close(); err != nil {
			t.Fatalf("crash at put %d: commit over the torn tail: %v", n, err)
		}
		led, err = Open(store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := led.Seq(); got != uint64(landed+1) {
			t.Fatalf("crash at put %d: Seq after recommit = %d, want %d", n, got, landed+1)
		}
		checkRecords(t, n, led, append(want, extra))
		led.Close()
		if rep, err := Verify(store, 1); err != nil || !rep.OK() || rep.Orphans != 0 {
			t.Fatalf("crash at put %d: Verify after recommit %+v, %v", n, rep, err)
		}
	}
}

func checkRecords(t *testing.T, n int, led *Ledger, want []results.Record) {
	t.Helper()
	got, err := led.Records()
	if err != nil {
		t.Fatalf("crash at put %d: Records: %v", n, err)
	}
	if len(got) != len(want) {
		t.Fatalf("crash at put %d: %d records, want %d", n, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("crash at put %d: record %d = %q, want %q", n, i, got[i].Key, want[i].Key)
		}
	}
}

// A ledger written under another schema is refused by name, not
// misread.
func TestLedgerRefusesOtherSchema(t *testing.T) {
	forEachStore(t, func(t *testing.T, store Store) {
		const v1 = "parastack-ledger/v1"
		if err := store.Put(headKey, []byte(`{"schema":"`+v1+`","seq":1,"root":"00"}`)); err != nil {
			t.Fatal(err)
		}
		_, err := Open(store, Options{})
		if err == nil || !strings.Contains(err.Error(), v1) || !strings.Contains(err.Error(), SchemaVersion) {
			t.Fatalf("Open over a v1 HEAD = %v, want an error naming %q and %q", err, v1, SchemaVersion)
		}
	})
}
