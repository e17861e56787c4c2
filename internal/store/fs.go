package store

import (
	"io"
	"os"
)

// fsys is everything Disk asks of the file system. osFS is the only
// implementation outside tests, which crash or fail the store at any of
// its mutating calls through it.
type fsys interface {
	MkdirAll(dir string, perm os.FileMode) error
	ReadDir(dir string) ([]os.DirEntry, error)
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Remove(name string) error
}

// file is an open segment or directory; *os.File satisfies it.
type file interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// osFS is fsys on the real file system.
type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error)   { return os.ReadDir(dir) }
func (osFS) Remove(name string) error                    { return os.Remove(name) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a typed nil inside the interface
	}
	return f, nil
}
