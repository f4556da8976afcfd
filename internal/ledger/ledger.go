// Package ledger is the tamper-evident results ledger: an append-only
// store of result records, batched into Merkle trees, with a
// content-addressed dedup index keyed by result identity (sweep cell
// keys / campaign fingerprints). It is the durable trust layer under
// fleet-scale sweeps and the parastackd daemon — any torn write,
// truncation, or single-bit flip in a committed record is detectable
// by replaying roots and inclusion proofs (Verify, cmd/psverify), and
// identical cells re-run through the ledger sink are dedup hits
// instead of re-executions.
//
// The subsystem splits interface-first into two layers:
//
//   - Store: raw blobs (Put/Get/Has/List). In-memory and local-disk
//     backends ship here; an object store slots in behind the same
//     five methods.
//   - Ledger: batches, roots, proofs, and the key index — everything
//     that gives the blobs meaning. Ledger implements results.Sink
//     and results.Reader, so it drops into the sweep orchestrator and
//     the detection service anywhere the JSONL log does.
//
// Store layout (all values JSON except record blobs, schema
// "parastack-ledger/v1"; see the EXPERIMENTS.md ledger entry):
//
//	records/<content-hash>   raw record payload (content-addressed)
//	batches/<seq, %08d>      batch manifest: root, prev root, entries
//	index/<key-hash>         per-key entry: batch, leaf, content hash,
//	                         inclusion proof (last write per key wins)
//	HEAD                     latest committed (seq, root)
//
// Batches chain by root (manifest.Prev is the previous batch's root),
// so rewriting any committed batch breaks the chain and replacing the
// tail is evident against an externally noted head root — psverify
// prints it for exactly that purpose.
//
// Commit order is blobs → manifest → index → HEAD. A crash between
// manifest and HEAD is rolled forward by Open (the manifest holds
// everything needed to rebuild index entries); a crash before the
// manifest leaves only unreferenced blobs, which are harmless.
package ledger

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"parastack/internal/results"
)

// SchemaVersion tags every manifest, index entry, and HEAD blob; Open
// and Verify reject blobs written by an incompatible schema.
const SchemaVersion = "parastack-ledger/v1"

// Store keys.
const (
	headKey      = "HEAD"
	recordPrefix = "records/"
	batchPrefix  = "batches/"
	indexPrefix  = "index/"
)

func recordKey(content [32]byte) string { return recordPrefix + hexHash(content) }
func batchKey(seq uint64) string        { return fmt.Sprintf("%s%08d", batchPrefix, seq) }
func indexKey(key string) string        { return indexPrefix + hexHash(contentHash([]byte(key))) }

// manifest is one committed batch: the Merkle root over its entries'
// content hashes, the previous batch's root (the chain link), and the
// ordered entry list.
type manifest struct {
	Schema  string          `json:"schema"`
	Seq     uint64          `json:"seq"`
	Prev    string          `json:"prev,omitempty"`
	Root    string          `json:"root"`
	Entries []manifestEntry `json:"entries"`
}

// manifestEntry is one leaf of a batch.
type manifestEntry struct {
	Key  string `json:"key"`
	Hash string `json:"hash"`
}

// indexEntry locates a key's latest record: which batch holds it, at
// which leaf, under which content hash, with its stored inclusion
// proof. It is the dedup index and the per-record proof store in one.
type indexEntry struct {
	Schema string      `json:"schema"`
	Key    string      `json:"key"`
	Seq    uint64      `json:"seq"`
	Leaf   int         `json:"leaf"`
	Hash   string      `json:"hash"`
	Proof  []ProofStep `json:"proof"`
}

// head is the chain tip.
type head struct {
	Schema string `json:"schema"`
	Seq    uint64 `json:"seq"`
	Root   string `json:"root"`
}

// Options tunes a Ledger. The zero value selects serviceable defaults.
type Options struct {
	// BatchSize commits a batch at this many records (0 = 64).
	BatchSize int
	// BatchDelay commits a partial batch after this long (0 = 50ms).
	BatchDelay time.Duration
	// Depth bounds the intake channel (0 = 256): when commits stall,
	// Append blocks rather than buffering without limit.
	Depth int
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.BatchDelay <= 0 {
		o.BatchDelay = 50 * time.Millisecond
	}
	if o.Depth <= 0 {
		o.Depth = 256
	}
	return o
}

// Stats is a point-in-time view of a ledger's activity since Open.
type Stats struct {
	// Appends counts records accepted (committed or pending);
	// DedupHits counts Appends short-circuited because the key already
	// held an identical payload; Batches counts commits this session.
	Appends, DedupHits, Batches uint64
}

// pending is one accepted record on its way into a batch, or — when
// flushDone is non-nil — a drain marker that forces the open batch out
// and signals the waiting Flush.
type pending struct {
	key       string
	content   [32]byte
	payload   []byte
	flushDone chan struct{}
}

// Ledger is the append-only, Merkle-batched results ledger over a
// Store. It implements results.Sink (Append/Close) and results.Reader
// (Records), and is safe for concurrent use.
type Ledger struct {
	store Store
	opts  Options

	in chan pending
	wg sync.WaitGroup

	// closeMu serializes intake against close(in): Append sends while
	// holding the read side, Close takes the write side before closing
	// the channel, so a late Append can never panic on a closed channel.
	closeMu sync.RWMutex

	mu      sync.Mutex
	keys    map[string]string // key → latest content hash (committed + in flight)
	seq     uint64            // last committed batch
	root    string            // last committed root (chain tip)
	stats   Stats
	err     error // sticky commit failure
	closed  bool
	flushed chan struct{} // signaled (replaced) after every commit; Flush waits on it
}

// Open loads (or initializes) the ledger in store: reads HEAD, rolls
// forward any batch that was fully written but not yet headed (the
// crash window between manifest and HEAD), loads the key index, and
// starts the batching committer.
func Open(store Store, opts Options) (*Ledger, error) {
	opts = opts.withDefaults()
	l := &Ledger{
		store:   store,
		opts:    opts,
		in:      make(chan pending, opts.Depth),
		keys:    make(map[string]string),
		flushed: make(chan struct{}),
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if err := l.loadIndex(); err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.loop()
	return l, nil
}

// recover reads HEAD and rolls forward committed-but-unheaded batches.
func (l *Ledger) recover() error {
	data, err := l.store.Get(headKey)
	switch err {
	case nil:
		var h head
		if uerr := json.Unmarshal(data, &h); uerr != nil {
			return fmt.Errorf("ledger: corrupt HEAD: %w", uerr)
		}
		if h.Schema != SchemaVersion {
			return fmt.Errorf("ledger: HEAD schema %q, want %q", h.Schema, SchemaVersion)
		}
		l.seq, l.root = h.Seq, h.Root
	case ErrNotFound:
		// Fresh (or torn-before-first-HEAD) ledger: seq 0.
	default:
		return err
	}
	// Roll forward: a manifest at seq+1 whose chain link matches the
	// current tip is a batch that committed fully except for its index
	// entries and/or HEAD. Rebuild both from the manifest (idempotent).
	for {
		data, err := l.store.Get(batchKey(l.seq + 1))
		if err == ErrNotFound {
			return nil
		}
		if err != nil {
			return err
		}
		var m manifest
		if json.Unmarshal(data, &m) != nil || m.Schema != SchemaVersion ||
			m.Seq != l.seq+1 || m.Prev != l.root {
			// Orphan or torn manifest past the tip: not part of the
			// committed chain. Leave it; the next commit overwrites it.
			return nil
		}
		if err := l.writeIndexEntries(m); err != nil {
			return err
		}
		if err := l.writeHead(m.Seq, m.Root); err != nil {
			return err
		}
		l.seq, l.root = m.Seq, m.Root
	}
}

// loadIndex builds the in-memory dedup map from the stored index.
// Unreadable entries are skipped, not fatal: the worst outcome is a
// missed dedup (the cell re-runs and re-appends), and Verify — not
// Open — is the auditor that flags them.
func (l *Ledger) loadIndex() error {
	keys, err := l.store.List(indexPrefix)
	if err != nil {
		return err
	}
	for _, k := range keys {
		data, err := l.store.Get(k)
		if err != nil {
			continue
		}
		var e indexEntry
		if json.Unmarshal(data, &e) != nil || e.Schema != SchemaVersion || e.Seq > l.seq {
			continue
		}
		l.keys[e.Key] = e.Hash
	}
	return nil
}

// Append implements results.Sink: accept one record for the next
// batch. An identical (key, payload) pair already present — committed
// or in flight — is a dedup hit: counted, not re-stored. A differing
// payload for an existing key is appended; the index is last-wins,
// matching the JSONL log's resume semantics. Append after Close
// returns results.ErrClosed; a commit failure is sticky and surfaces
// on every subsequent call.
func (l *Ledger) Append(rec results.Record) error {
	content := contentHash(rec.Payload)
	hexContent := hexHash(content)

	l.closeMu.RLock()
	defer l.closeMu.RUnlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return results.ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.keys[rec.Key] == hexContent {
		l.stats.DedupHits++
		l.mu.Unlock()
		return nil
	}
	l.keys[rec.Key] = hexContent
	l.stats.Appends++
	l.mu.Unlock()

	payload := make([]byte, len(rec.Payload))
	copy(payload, rec.Payload)
	l.in <- pending{key: rec.Key, content: content, payload: payload}
	return nil
}

// Has reports whether key holds a committed or in-flight record — the
// dedup query a shared-results cache answers before scheduling work.
func (l *Ledger) Has(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.keys[key]
	return ok
}

// Get returns the latest committed payload for key. In-flight records
// (appended, not yet committed) are not visible; call Flush first if
// read-your-writes matters.
func (l *Ledger) Get(key string) ([]byte, error) {
	data, err := l.store.Get(indexKey(key))
	if err != nil {
		return nil, err
	}
	var e indexEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("ledger: corrupt index entry for %q: %w", key, err)
	}
	content, ok := parseHash(e.Hash)
	if !ok {
		return nil, fmt.Errorf("ledger: corrupt index hash for %q", key)
	}
	return l.store.Get(recordKey(content))
}

// Records implements results.Reader: every committed record in append
// order (batch by batch, leaf by leaf). A payload whose content hash
// no longer matches its manifest entry is an error — corruption must
// never silently feed a resume.
func (l *Ledger) Records() ([]results.Record, error) {
	l.mu.Lock()
	tip := l.seq
	l.mu.Unlock()
	var out []results.Record
	for seq := uint64(1); seq <= tip; seq++ {
		m, err := l.manifestAt(seq)
		if err != nil {
			return nil, err
		}
		for _, e := range m.Entries {
			content, ok := parseHash(e.Hash)
			if !ok {
				return nil, fmt.Errorf("ledger: batch %d: corrupt hash for key %q", seq, e.Key)
			}
			payload, err := l.store.Get(recordKey(content))
			if err != nil {
				return nil, fmt.Errorf("ledger: batch %d: record for key %q: %w", seq, e.Key, err)
			}
			if contentHash(payload) != content {
				return nil, fmt.Errorf("ledger: batch %d: record for key %q fails its content hash", seq, e.Key)
			}
			out = append(out, results.Record{Key: e.Key, Payload: payload})
		}
	}
	return out, nil
}

func (l *Ledger) manifestAt(seq uint64) (manifest, error) {
	var m manifest
	data, err := l.store.Get(batchKey(seq))
	if err != nil {
		return m, fmt.Errorf("ledger: batch %d: %w", seq, err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("ledger: batch %d: corrupt manifest: %w", seq, err)
	}
	if m.Schema != SchemaVersion {
		return m, fmt.Errorf("ledger: batch %d: schema %q, want %q", seq, m.Schema, SchemaVersion)
	}
	return m, nil
}

// HeadRoot returns the chain tip: the last committed batch's root (""
// while nothing is committed). Noting it externally is what makes
// tail-rewrites evident; psverify prints it on every clean run.
func (l *Ledger) HeadRoot() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.root
}

// Seq returns the last committed batch number.
func (l *Ledger) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// LedgerStats snapshots activity counters since Open.
func (l *Ledger) LedgerStats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Err surfaces a sticky commit failure, if any.
func (l *Ledger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Flush blocks until every record accepted before the call is
// committed (or a commit error is sticky).
func (l *Ledger) Flush() error {
	// Drain marker: a zero-key pending with nil payload forces the
	// committer to emit the open batch and signal.
	l.closeMu.RLock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.closeMu.RUnlock()
		return l.Err()
	}
	done := make(chan struct{})
	l.mu.Unlock()
	l.in <- pending{payload: nil, flushDone: done}
	l.closeMu.RUnlock()
	<-done
	return l.Err()
}

// Lag implements results.Lagger: records accepted but not yet handed
// to the committer — a lower bound on durability lag (records in the
// committer's open batch are not counted; Flush bounds those too).
func (l *Ledger) Lag() int { return len(l.in) }

// Close implements results.Sink: stop intake, commit the final partial
// batch, and return any sticky commit error. Idempotent.
func (l *Ledger) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return l.Err()
	}
	l.closed = true
	l.mu.Unlock()
	// Wait out in-flight Appends (they hold closeMu.RLock across their
	// channel send), then close intake so the committer drains and exits.
	l.closeMu.Lock()
	close(l.in)
	l.closeMu.Unlock()
	l.wg.Wait()
	return l.Err()
}

// loop is the single committer goroutine: a size+deadline batcher (a
// deadline timer armed when a batch opens, flush on size or deadline,
// whichever wins). Timer channels are synchronous (Go 1.23 semantics):
// after Reset no stale expiry is received, so re-arming needs no drain,
// and an expiry left over from a batch that size flushed arrives, if at
// all, only while no batch is open, where flushing is a no-op.
func (l *Ledger) loop() {
	defer l.wg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var batch []pending
	emit := func() {
		if len(batch) == 0 {
			return
		}
		l.commit(batch)
		batch = nil
	}
	for {
		select {
		case p, ok := <-l.in:
			if !ok {
				emit()
				return
			}
			if p.flushDone != nil {
				emit()
				close(p.flushDone)
				continue
			}
			if len(batch) == 0 {
				// A batch just opened: arm its flush deadline.
				timer.Reset(l.opts.BatchDelay)
			}
			batch = append(batch, p)
			if len(batch) >= l.opts.BatchSize {
				emit()
			}
		case <-timer.C:
			emit()
		}
	}
}

// commit writes one batch: blobs, manifest, index entries, HEAD — in
// that order, so every crash window is recoverable (see the package
// comment). A failure is sticky: recorded once, and later batches are
// dropped rather than committed onto a broken tip.
func (l *Ledger) commit(batch []pending) {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return
	}
	seq, prev := l.seq+1, l.root
	l.mu.Unlock()

	fail := func(err error) {
		l.mu.Lock()
		if l.err == nil {
			l.err = fmt.Errorf("ledger: commit batch %d: %w", seq, err)
		}
		l.mu.Unlock()
	}

	m := manifest{Schema: SchemaVersion, Seq: seq, Prev: prev}
	leaves := make([][32]byte, len(batch))
	for i, p := range batch {
		if err := l.store.Put(recordKey(p.content), p.payload); err != nil {
			fail(err)
			return
		}
		m.Entries = append(m.Entries, manifestEntry{Key: p.key, Hash: hexHash(p.content)})
		leaves[i] = leafHash(p.content)
	}
	m.Root = hexHash(merkleRoot(leaves))
	data, err := json.Marshal(m)
	if err != nil {
		fail(err)
		return
	}
	if err := l.store.Put(batchKey(seq), data); err != nil {
		fail(err)
		return
	}
	if err := l.writeIndexEntries(m); err != nil {
		fail(err)
		return
	}
	if err := l.writeHead(seq, m.Root); err != nil {
		fail(err)
		return
	}
	l.mu.Lock()
	l.seq, l.root = seq, m.Root
	l.stats.Batches++
	l.mu.Unlock()
}

// writeIndexEntries stores one index entry (with inclusion proof) per
// manifest entry. Duplicate keys within a batch resolve last-wins, the
// same rule the JSONL log's resume index applies.
func (l *Ledger) writeIndexEntries(m manifest) error {
	leaves := make([][32]byte, len(m.Entries))
	for i, e := range m.Entries {
		content, ok := parseHash(e.Hash)
		if !ok {
			return fmt.Errorf("ledger: batch %d: corrupt entry hash for %q", m.Seq, e.Key)
		}
		leaves[i] = leafHash(content)
	}
	// last-wins: walk forward, later writes overwrite earlier ones.
	for i, e := range m.Entries {
		entry := indexEntry{
			Schema: SchemaVersion,
			Key:    e.Key,
			Seq:    m.Seq,
			Leaf:   i,
			Hash:   e.Hash,
			Proof:  merkleProof(leaves, i),
		}
		data, err := json.Marshal(entry)
		if err != nil {
			return err
		}
		if err := l.store.Put(indexKey(e.Key), data); err != nil {
			return err
		}
	}
	return nil
}

func (l *Ledger) writeHead(seq uint64, root string) error {
	data, err := json.Marshal(head{Schema: SchemaVersion, Seq: seq, Root: root})
	if err != nil {
		return err
	}
	return l.store.Put(headKey, data)
}
