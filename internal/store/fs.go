// Package store provides the durable account backends behind the
// webserver's sharded account store: a no-op in-memory backend (the
// historical behavior — enrollment dies with the process) and a
// deterministic append-only write-ahead log with snapshot compaction
// (wal.go) so an acknowledged enrollment survives any crash. All
// timestamps ride the repo's virtual clock (time.Duration offsets
// carried in the records); nothing in this package reads wall time.
//
// The filesystem is abstract (FS/File below) so crashes are a
// first-class input: tests run the WAL over an in-memory FS whose
// files can be truncated at any byte — including mid-record — and over
// a fault-injecting wrapper (fault.go) that tears writes and fails
// syncs deterministically. Production code uses DirFS.
// docs/persistence.md describes the formats and the crash model.
package store

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the narrow file handle the WAL needs: sequential reads for
// replay, appends for the log, Sync as the durability barrier. A
// record is acknowledged only after the write AND the sync succeeded.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes written bytes to stable storage. An enrollment is
	// acked to the client only after its record's Sync returned nil.
	Sync() error
}

// FS is the directory the WAL lives in. Implementations must make
// Rename atomic with respect to crashes: after a crash, readers see
// either the old file or the complete new one, never a mix — the
// property snapshot publication relies on.
type FS interface {
	// OpenRead opens an existing file for reading from the start;
	// errors satisfying errors.Is(err, fs.ErrNotExist) mean absence.
	OpenRead(name string) (File, error)
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// OpenAppend opens a file for appending, creating it when absent.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
	// Remove deletes a file; removing an absent file is not an error.
	Remove(name string) error
}

// DirFS is the production FS: files under a root directory on the
// host filesystem.
type DirFS struct {
	Root string
}

// NewDirFS creates the directory (if needed) and returns an FS rooted
// there.
func NewDirFS(root string) (DirFS, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return DirFS{}, fmt.Errorf("store: creating %s: %w", root, err)
	}
	return DirFS{Root: root}, nil
}

func (d DirFS) path(name string) string { return filepath.Join(d.Root, name) }

func (d DirFS) OpenRead(name string) (File, error) {
	return os.Open(d.path(name))
}

func (d DirFS) Create(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (d DirFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (d DirFS) Rename(oldname, newname string) error {
	return os.Rename(d.path(oldname), d.path(newname))
}

func (d DirFS) Remove(name string) error {
	err := os.Remove(d.path(name))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// MemFS is the deterministic in-memory FS the crash tests run over. It
// tracks, per file, how many bytes have been synced: Crash() yields
// the directory a real machine would find after power loss — every
// file truncated to its synced length.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	data   []byte
	synced int
}

// NewMemFS returns an empty in-memory directory.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// memHandle is one open handle; reads and writes go through the owning
// MemFS lock so concurrent appenders (the server under -race) are safe.
type memHandle struct {
	fs   *MemFS
	name string
	off  int // read offset (read handles only)
}

func (m *MemFS) OpenRead(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return nil, fmt.Errorf("store: open %s: %w", name, fs.ErrNotExist)
	}
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memFile{}
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = &memFile{}
	}
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("store: rename %s: %w", oldname, fs.ErrNotExist)
	}
	// The rename itself is the atomic publication point: the new name
	// carries the file's full content with its synced watermark.
	m.files[newname] = f
	delete(m.files, oldname)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

func (h *memHandle) file() (*memFile, error) {
	f, ok := h.fs.files[h.name]
	if !ok {
		return nil, fmt.Errorf("store: %s: %w", h.name, fs.ErrNotExist)
	}
	return f, nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	if h.off >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[h.off:])
	h.off += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return err
	}
	f.synced = len(f.data)
	return nil
}

func (h *memHandle) Close() error { return nil }

// Bytes returns a copy of a file's current content (synced or not);
// the second result reports existence.
func (m *MemFS) Bytes(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.data...), true
}

// CorruptByte XORs a mask into one byte of a file — the checksum-
// corruption fault for the detection tests.
func (m *MemFS) CorruptByte(name string, off int, mask byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok || off < 0 || off >= len(f.data) {
		return
	}
	f.data[off] ^= mask
}

// Crash returns the directory as a fresh MemFS holding what stable
// storage would hold after a power loss: each file truncated to its
// synced watermark. The original is untouched.
func (m *MemFS) Crash() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := m.files[name]
		out.files[name] = &memFile{
			data:   append([]byte(nil), f.data[:f.synced]...),
			synced: f.synced,
		}
	}
	return out
}
