//go:build !unix

package binenc

import "os"

// MapFile reads path into memory. Non-unix platforms have no mmap fast
// path; the semantics (a private buffer the caller may mutate) match the
// unix implementation.
func MapFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// MapFileReleasable is MapFile plus a release function; with no mapping to
// undo, release is always nil.
func MapFileReleasable(path string) (data []byte, release func() error, err error) {
	data, err = os.ReadFile(path)
	return data, nil, err
}
