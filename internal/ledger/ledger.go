// Package ledger is the tamper-evident results ledger: an append-only
// store of result records, batched into Merkle trees, with a dedup
// index keyed by result identity (sweep cell keys / campaign
// fingerprints). It is the durable trust layer under fleet-scale sweeps
// and the parastackd daemon — any torn write, truncation, or single-bit
// flip in a committed record is detectable by replaying roots and
// inclusion proofs (Verify, cmd/psverify), and identical cells re-run
// through the ledger sink are dedup hits instead of re-executions.
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
// Store layout (schema "parastack-ledger/v2"; see the EXPERIMENTS.md
// ledger entry), three blobs per batch:
//
//	packs/<seq, %08d>    the batch's payloads back to back, each
//	                     followed by '\n'
//	batches/<seq, %08d>  batch manifest (JSON): root, prev root, and
//	                     the entries (key, content hash, length) that
//	                     cut the pack into records
//	HEAD                 latest committed (seq, root), JSON
//
// Batches chain by root (manifest.Prev is the previous batch's root),
// so rewriting any committed batch breaks the chain and replacing the
// tail is evident against an externally noted head root — psverify
// prints it for exactly that purpose. The per-key index lives only in
// memory: Open rebuilds it from the manifests, and inclusion proofs are
// recomputed from a manifest's leaves rather than stored.
//
// Commit order is pack → manifest → HEAD, each one atomic Put. A crash
// before the manifest leaves an unreferenced pack, which is harmless
// and overwritten by the next commit of that seq; a crash between
// manifest and HEAD is rolled forward by Open.
package ledger

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"parastack/internal/results"
)

// SchemaVersion tags every manifest and HEAD blob; Open and Verify
// reject blobs written by an incompatible schema.
const SchemaVersion = "parastack-ledger/v2"

// Store keys.
const (
	headKey     = "HEAD"
	packPrefix  = "packs/"
	batchPrefix = "batches/"
)

func packKey(seq uint64) string  { return fmt.Sprintf("%s%08d", packPrefix, seq) }
func batchKey(seq uint64) string { return fmt.Sprintf("%s%08d", batchPrefix, seq) }

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

// manifestEntry is one leaf of a batch. Len is the payload's length in
// the batch's pack, so the manifest alone cuts the pack into records.
type manifestEntry struct {
	Key  string `json:"key"`
	Hash string `json:"hash"`
	Len  int    `json:"len"`
}

// head is the chain tip.
type head struct {
	Schema string `json:"schema"`
	Seq    uint64 `json:"seq"`
	Root   string `json:"root"`
}

// keyState is what the ledger knows about one key: the content hash of
// its latest payload, committed or in flight (the dedup test), and
// where its latest committed record lives (seq 0: nothing committed).
type keyState struct {
	hash [32]byte
	seq  uint64
	leaf int
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

	mu     sync.Mutex
	keys   map[string]keyState
	seq    uint64 // last committed batch
	root   string // last committed root (chain tip)
	stats  Stats
	err    error // sticky commit failure
	closed bool
}

// Open loads (or initializes) the ledger in store: reads HEAD, rebuilds
// the key index from manifests 1..seq, rolls forward any batch that was
// fully written but not yet headed (the crash window between manifest
// and HEAD), and starts the batching committer. It reads no pack.
func Open(store Store, opts Options) (*Ledger, error) {
	opts = opts.withDefaults()
	l := &Ledger{
		store: store,
		opts:  opts,
		in:    make(chan pending, opts.Depth),
		keys:  make(map[string]keyState),
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.loop()
	return l, nil
}

// recover reads HEAD, indexes every committed manifest, and rolls
// forward committed-but-unheaded batches.
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
	// Unreadable manifests are skipped, not fatal: the worst outcome is
	// a missed dedup (the cell re-runs and re-appends), and Verify — not
	// Open — is the auditor that flags them.
	for seq := uint64(1); seq <= l.seq; seq++ {
		m, err := l.manifestAt(seq)
		if err != nil {
			continue
		}
		l.index(m)
	}
	// Roll forward: a manifest at seq+1 whose chain link matches the
	// current tip, over a pack that splits into exactly its entries'
	// records, is a batch that committed fully except for HEAD.
	for {
		m, _, err := l.readBatch(l.seq + 1)
		if err != nil || m.Prev != l.root {
			// Absent, torn, or not chained to the tip: not part of the
			// committed chain. Leave it; the next commit overwrites it.
			return nil
		}
		if err := l.writeHead(m.Seq, m.Root); err != nil {
			return err
		}
		l.seq, l.root = m.Seq, m.Root
		l.index(m)
	}
}

// index points every key of a committed batch at its leaf. Duplicate
// keys within a batch resolve last-wins, the rule the JSONL log's resume
// index applies. Entries whose hash does not parse are skipped (a missed
// dedup; Verify reports them).
func (l *Ledger) index(m manifest) {
	for i, e := range m.Entries {
		if content, ok := parseHash(e.Hash); ok {
			l.keys[e.Key] = keyState{hash: content, seq: m.Seq, leaf: i}
		}
	}
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
	st, ok := l.keys[rec.Key]
	if ok && st.hash == content {
		l.stats.DedupHits++
		l.mu.Unlock()
		return nil
	}
	st.hash = content // the committed location stays until this commits
	l.keys[rec.Key] = st
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

// Get returns the latest committed payload for key: one manifest and
// one pack read. In-flight records (appended, not yet committed) are
// not visible; call Flush first if read-your-writes matters.
func (l *Ledger) Get(key string) ([]byte, error) {
	l.mu.Lock()
	st := l.keys[key]
	l.mu.Unlock()
	if st.seq == 0 {
		return nil, ErrNotFound
	}
	_, recs, err := l.readBatch(st.seq)
	if err != nil {
		return nil, err
	}
	if st.leaf >= len(recs) || recs[st.leaf].Key != key {
		return nil, fmt.Errorf("ledger: batch %d: leaf %d is not key %q", st.seq, st.leaf, key)
	}
	return recs[st.leaf].Payload, nil
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
		_, recs, err := l.readBatch(seq)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// readBatch reads batch seq's manifest and pack, cuts the pack into
// records — it must hold exactly the entries' lengths, each payload
// followed by '\n' — and checks each payload against its content hash.
// Payloads alias the pack, capped so that appending to one cannot
// overwrite the next.
func (l *Ledger) readBatch(seq uint64) (manifest, []results.Record, error) {
	m, err := l.manifestAt(seq)
	if err != nil {
		return m, nil, err
	}
	pack, err := l.store.Get(packKey(seq))
	if err != nil {
		return m, nil, fmt.Errorf("ledger: batch %d: pack: %w", seq, err)
	}
	recs := make([]results.Record, len(m.Entries))
	off := 0
	for i, e := range m.Entries {
		if e.Len >= len(pack)-off || pack[off+e.Len] != '\n' {
			return m, nil, fmt.Errorf("ledger: batch %d: pack does not split at key %q", seq, e.Key)
		}
		payload := pack[off : off+e.Len : off+e.Len]
		off += e.Len + 1
		if content, ok := parseHash(e.Hash); !ok || contentHash(payload) != content {
			return m, nil, fmt.Errorf("ledger: batch %d: record for key %q fails its content hash", seq, e.Key)
		}
		recs[i] = results.Record{Key: e.Key, Payload: payload}
	}
	if off != len(pack) {
		return m, nil, fmt.Errorf("ledger: batch %d: pack holds %d bytes past its last record", seq, len(pack)-off)
	}
	return m, recs, nil
}

// manifestAt reads and decodes batch seq's manifest.
func (l *Ledger) manifestAt(seq uint64) (manifest, error) { return readManifest(l.store, seq) }

// readManifest reads and decodes batch seq's manifest, rejecting a
// foreign schema, a mismatched seq, or a negative entry length. A
// missing manifest wraps ErrNotFound.
func readManifest(store Store, seq uint64) (manifest, error) {
	var m manifest
	data, err := store.Get(batchKey(seq))
	if err != nil {
		return m, fmt.Errorf("ledger: batch %d: %w", seq, err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("ledger: batch %d: corrupt manifest: %w", seq, err)
	}
	if m.Schema != SchemaVersion {
		return m, fmt.Errorf("ledger: batch %d: schema %q, want %q", seq, m.Schema, SchemaVersion)
	}
	if m.Seq != seq {
		return m, fmt.Errorf("ledger: batch %d: manifest names seq %d", seq, m.Seq)
	}
	for _, e := range m.Entries {
		if e.Len < 0 {
			return m, fmt.Errorf("ledger: batch %d: negative length for key %q", seq, e.Key)
		}
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

// commit writes one batch: pack, manifest, HEAD — in that order, so
// every crash window is recoverable (see the package comment). A
// failure is sticky: recorded once, and later batches are dropped
// rather than committed onto a broken tip.
func (l *Ledger) commit(batch []pending) {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return
	}
	seq, prev := l.seq+1, l.root
	l.mu.Unlock()

	size := 0
	for _, p := range batch {
		size += len(p.payload) + 1
	}
	pack := make([]byte, 0, size)
	m := manifest{Schema: SchemaVersion, Seq: seq, Prev: prev, Entries: make([]manifestEntry, len(batch))}
	leaves := make([][32]byte, len(batch))
	for i, p := range batch {
		pack = append(append(pack, p.payload...), '\n')
		m.Entries[i] = manifestEntry{Key: p.key, Hash: hexHash(p.content), Len: len(p.payload)}
		leaves[i] = leafHash(p.content)
	}
	m.Root = hexHash(merkleRoot(leaves))
	data, err := json.Marshal(m)
	if err == nil {
		err = l.store.Put(packKey(seq), pack)
	}
	if err == nil {
		err = l.store.Put(batchKey(seq), data)
	}
	if err == nil {
		err = l.writeHead(seq, m.Root)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.err = fmt.Errorf("ledger: commit batch %d: %w", seq, err)
		return
	}
	l.seq, l.root = seq, m.Root
	l.stats.Batches++
	for i, p := range batch {
		st := l.keys[p.key]
		st.seq, st.leaf = seq, i
		l.keys[p.key] = st
	}
}

func (l *Ledger) writeHead(seq uint64, root string) error {
	data, err := json.Marshal(head{Schema: SchemaVersion, Seq: seq, Root: root})
	if err != nil {
		return err
	}
	return l.store.Put(headKey, data)
}
