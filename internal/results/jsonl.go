package results

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"sync"
)

// JSONL is the plain-file Sink/Reader: one payload per line, appended
// in arrival order, fsync'd every SyncEvery appends and on Flush/Close.
// It is the repository's one append-only log: the sweep's results log
// (internal/sweep.Log) is this type plus a marshaller, and the service
// admission journal writes through it directly. It implements Reader —
// Records re-reads the file — and reports Lag, the number of appended
// records not yet covered by an fsync (the crash-loss window a health
// probe surfaces).
//
// The crash rule (DESIGN.md §10): a record is committed iff its
// trailing newline is durable. ReadJSONL drops an unterminated tail,
// and OpenJSONL cuts it off the file before the first append, so a
// record appended after a crash-restart starts on a line of its own
// instead of being glued onto the fragment the crash left behind.
//
// Keys are not persisted: the payload is written verbatim, so any
// identity a reader needs must ride inside the payload (the journal's
// records carry their kind and job id; the sweep log carries its cell
// key). Records therefore returns each line with an empty Key.
type JSONL struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	bw        *bufio.Writer
	sinceSync int
	every     int
	closed    bool
}

// OpenJSONL opens (creating if absent, appending otherwise) a JSONL
// sink at path, first cutting the file back to just past its last
// newline (see the crash rule on JSONL). syncEvery is the fsync batch
// size; <= 0 selects 1 — fsync on every append — because the primary
// consumer is the service admission journal, whose journal-before-ack
// invariant is only as strong as the sync policy.
func OpenJSONL(path string, syncEvery int) (*JSONL, error) {
	if syncEvery <= 0 {
		syncEvery = 1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := cutTornTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return &JSONL{path: path, f: f, bw: bufio.NewWriter(f), every: syncEvery}, nil
}

// cutTornTail truncates f to just past its last newline, scanning back
// from the end, and fsyncs the cut. A file that is empty or already
// ends in a newline is left untouched.
func cutTornTail(f *os.File) error {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	buf := make([]byte, 4096)
	keep := size
	for keep > 0 {
		chunk := buf[:min(keep, int64(len(buf)))]
		if _, err := f.ReadAt(chunk, keep-int64(len(chunk))); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			keep -= int64(len(chunk) - i - 1)
			break
		}
		keep -= int64(len(chunk))
	}
	if keep == size {
		return nil
	}
	if err := f.Truncate(keep); err != nil {
		return err
	}
	return f.Sync()
}

// Append implements Sink: the payload becomes one line. The line is
// flushed and fsync'd when the sync batch is due.
func (l *JSONL) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.bw.Write(rec.Payload); err != nil {
		return err
	}
	if err := l.bw.WriteByte('\n'); err != nil {
		return err
	}
	l.sinceSync++
	if l.sinceSync >= l.every {
		return l.syncLocked()
	}
	return nil
}

// Flush forces buffered records to disk (fsync included) without
// closing the sink.
func (l *JSONL) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *JSONL) syncLocked() error {
	l.sinceSync = 0
	if err := l.bw.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Lag reports how many appended records are not yet covered by an
// fsync — the most a crash right now could lose.
func (l *JSONL) Lag() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceSync
}

// Close flushes, fsyncs, and closes the file. A second Close is a
// no-op returning nil.
func (l *JSONL) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	flushErr := l.bw.Flush()
	syncErr := l.f.Sync()
	closeErr := l.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Records implements Reader: every committed line, in file order, as
// a Record with an empty Key (see ReadJSONL). Buffered-but-unflushed
// appends are synced first so a sink reads its own writes.
func (l *JSONL) Records() ([]Record, error) {
	l.mu.Lock()
	if !l.closed && l.sinceSync > 0 {
		if err := l.syncLocked(); err != nil {
			l.mu.Unlock()
			return nil, err
		}
	}
	path := l.path
	l.mu.Unlock()
	return ReadJSONL(path)
}

// ReadJSONL reads a JSONL file written by a JSONL sink (or any other
// line-per-record writer) into Records, without needing the sink open.
// Only committed lines are returned: an unterminated final line — the
// signature of a hard kill mid-write — is dropped, and empty lines are
// skipped. A missing file is an empty result, not an error — a first
// boot with a journal path configured has nothing to replay.
func ReadJSONL(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var out []Record
	r := bufio.NewReader(f)
	for {
		data, err := r.ReadBytes('\n')
		complete := err == nil
		line := bytes.TrimSpace(data)
		if len(line) > 0 && complete {
			payload := make([]byte, len(line))
			copy(payload, line)
			out = append(out, Record{Payload: payload})
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
