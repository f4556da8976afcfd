package ledger

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is the raw blob layer under a Ledger: a flat key→bytes map
// with prefix listing. The interface is deliberately minimal — exactly
// what an object store offers — so the Merkle/batching/dedup logic
// above it never knows whether it is talking to memory, a local
// directory, or (later) S3-alikes. Keys are slash-separated paths of
// [A-Za-z0-9._-] segments ("packs/00000001", "batches/00000001");
// the Ledger only ever derives them from hashes and sequence numbers,
// never from user input.
//
// Put must be atomic: a crash mid-Put leaves either the old value or
// the new one, never a torn blob. The ledger's crash-recovery contract
// (Open's roll-forward, Verify's torn-tail tolerance) is built on that
// guarantee. Implementations must be safe for concurrent use.
type Store interface {
	// Put atomically writes key's blob, overwriting any previous value.
	Put(key string, data []byte) error
	// Get returns key's blob. A missing key is (nil, ErrNotFound).
	Get(key string) ([]byte, error)
	// Has reports whether key exists.
	Has(key string) (bool, error)
	// List returns every key with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Close releases the store. Blobs written before Close survive it
	// (durable backends); a second Close is a no-op returning nil.
	Close() error
}

// ErrNotFound marks a Get for a key the store does not hold. It is a
// distinct sentinel (not io/fs.ErrNotExist) so ledger recovery can
// distinguish "blob genuinely absent" from backend I/O failures.
var ErrNotFound = fmt.Errorf("ledger: key not found")

// MemStore is the in-memory Store: the unit-test and
// ephemeral-pipeline backend. The zero value is not usable; call
// NewMemStore.
type MemStore struct {
	mu     sync.RWMutex
	blobs  map[string][]byte
	closed bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

func (m *MemStore) Put(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("ledger: memstore is closed")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.blobs[key] = cp
	return nil
}

func (m *MemStore) Get(key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.blobs[key]
	if !ok {
		return nil, ErrNotFound
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

func (m *MemStore) Has(key string) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.blobs[key]
	return ok, nil
}

func (m *MemStore) List(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var keys []string
	for k := range m.blobs {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Corrupt flips one bit of a held blob — the test seam behind the
// corruption table tests ("any single-bit flip is localized to its
// cell key"). It exists on MemStore only; disk-backed corruption is
// exercised by `make ledger-smoke` with dd.
func (m *MemStore) Corrupt(key string, byteOff int, bit uint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.blobs[key]
	if !ok {
		return ErrNotFound
	}
	if byteOff < 0 || byteOff >= len(data) {
		return fmt.Errorf("ledger: corrupt offset %d out of range (blob is %d bytes)", byteOff, len(data))
	}
	data[byteOff] ^= 1 << (bit % 8)
	return nil
}

// DirStore is the local-disk Store: one file per key under a root
// directory, with atomic, durable writes (temp file in the destination
// directory, fsync, rename, fsync of the directory). It is what
// `pssweep -ledger DIR` and `parastackd -ledger DIR` open.
type DirStore struct {
	root string

	mu     sync.Mutex
	dirs   map[string]bool // directories made (or found) and synced by mkdir
	closed bool
}

// OpenDirStore opens (creating if needed) a directory-backed store
// rooted at dir.
func OpenDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{root: dir, dirs: make(map[string]bool)}, nil
}

// path maps a store key onto its file. Keys are ledger-generated
// (hashes, zero-padded sequence numbers), so the only separator to
// translate is '/'.
func (d *DirStore) path(key string) string {
	return filepath.Join(d.root, filepath.FromSlash(key))
}

func (d *DirStore) Put(key string, data []byte) error {
	dst := d.path(key)
	dir := filepath.Dir(dst)
	if err := d.mkdir(dir); err != nil {
		return err
	}
	// Atomic publish: write + fsync a temp file in the destination
	// directory, then rename over the final name. A crash leaves either
	// the old blob or the new one — never a torn file — which is the
	// contract Open's roll-forward recovery depends on.
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return err
	}
	// The rename is durable only once the directory holding the new
	// entry is: without this a Put that returned could vanish on power
	// loss.
	return syncDir(dir)
}

// mkdir refuses a closed store and creates dir on its first use,
// fsyncing its parent so that a new subdirectory's entry is as durable
// as the blobs put into it. Ledger keys sit at most one level below the
// root, so one parent covers them.
func (d *DirStore) mkdir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("ledger: dirstore is closed")
	}
	if d.dirs[dir] {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return err
	}
	d.dirs[dir] = true
	return nil
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (d *DirStore) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	return data, nil
}

func (d *DirStore) Has(key string) (bool, error) {
	_, err := os.Stat(d.path(key))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

func (d *DirStore) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(d.root, func(p string, entry fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // concurrent removal: treat as absent
			}
			return err
		}
		if entry.IsDir() {
			return nil
		}
		name := entry.Name()
		if strings.HasPrefix(name, ".put-") {
			return nil // abandoned temp file from a crashed Put
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

func (d *DirStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}
