//go:build linux || darwin

package labelstore

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only and shared: every process mapping
// the same store file sees one physical copy of the label blob in the page
// cache. Nothing in the ReadBytes path writes through the returned slice
// (it adopts the arena unmasked: the views are bitstr.SlabLabel's), so
// PROT_READ is safe.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error { return syscall.Munmap(b) }
