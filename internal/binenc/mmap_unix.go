//go:build unix

package binenc

import (
	"os"
	"syscall"
)

// MapFile maps path into memory and returns its bytes. The mapping is
// private (copy-on-write), so callers may treat the result exactly like an
// os.ReadFile buffer — mutating it never touches the file. MapFile's
// mapping is never unmapped: profiles live for the whole process, and the
// zero-copy numeric views returned by U32s/F64s alias the mapping, so
// unmapping would invalidate live data. Callers that copy everything they
// keep out of the bytes use MapFileReleasable instead.
//
// Empty files map to an empty (non-mmapped) slice, since mmap of length 0
// is an error on most unixes.
func MapFile(path string) ([]byte, error) {
	data, _, err := MapFileReleasable(path)
	return data, err
}

// MapFileReleasable is MapFile plus a release function that unmaps the
// bytes. Release is nil when nothing was mapped (empty files and the
// os.ReadFile fallbacks), so it only ever unmaps a mapping this call
// created. After release the bytes, and every slice that aliases them,
// must not be touched again.
func MapFileReleasable(path string) (data []byte, release func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		return []byte{}, nil, nil
	}
	if int64(int(size)) != size {
		data, err := os.ReadFile(path)
		return data, nil, err
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	if err != nil {
		// Filesystems without mmap support (some network mounts) fall back
		// to a plain read.
		data, err := os.ReadFile(path)
		return data, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
