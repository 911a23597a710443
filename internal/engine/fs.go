package engine

// The engine's persistence (cache objects, the serve job index) goes through the
// narrow FS interface instead of the os package directly, so the fault
// tests in engine/faultfs can interpose torn writes, read errors,
// corruption, and stalls without touching the real filesystem code
// paths. Production always uses OS(), the trivial passthrough.

import (
	"io"
	"os"
	"time"
)

// FS is the slice of filesystem behaviour the engine needs. All paths
// are OS paths; semantics match the corresponding os functions.
type FS interface {
	MkdirAll(dir string) error
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte) error
	// WriteFileExcl creates path exclusively (O_CREATE|O_EXCL) and
	// writes data; an existing file fails with an error matching
	// fs.ErrExist. The cache uses it to claim temp-file names, so two
	// processes sharing a cache directory can never interleave writes
	// into the same temp file.
	WriteFileExcl(path string, data []byte) error
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// Chtimes sets path's access and modification times. The cache uses
	// it to touch objects on read, so eviction under a size budget is
	// access-ordered rather than write-ordered.
	Chtimes(path string, t time.Time) error
	// OpenAppend opens path for appending, creating it if needed.
	OpenAppend(path string) (io.WriteCloser, error)
}

type osFS struct{}

func (osFS) MkdirAll(dir string) error                { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadFile(path string) ([]byte, error)     { return os.ReadFile(path) }
func (osFS) WriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
func (osFS) WriteFileExcl(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, werr := f.Write(data); werr != nil {
		_ = f.Close()
		return werr
	}
	return f.Close()
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) Chtimes(path string, t time.Time) error {
	return os.Chtimes(path, t, t)
}
func (osFS) OpenAppend(path string) (io.WriteCloser, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// OS returns the real-filesystem implementation of FS.
func OS() FS { return osFS{} }
