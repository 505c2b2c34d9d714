package labelstore

import (
	"io"
	"os"
	"time"
)

// MappedFile is a File backed by a memory-mapped store file. On platforms
// with mmap support the arena (and every label view) is a window into the
// page cache, and any number of processes serving the same file share one
// physical copy of the labels. Open costs an O(n) parse of the
// header — the n bit lengths, the permutation, one walk that validates them
// and builds the n label views — and leaves the body alone: nothing is
// copied, and the only body bytes read are the shard check's, one bit of each
// foreign label a shard store holds (it must be fat). Close unmaps; the File and anything
// derived from its arena (query engines included) must not be used
// afterwards.
type MappedFile struct {
	*File
	mapping []byte
}

// Mapped reports whether the file's labels are served from a live memory
// mapping (false on platforms without mmap, where Open fell back to a heap
// copy and Close is a no-op).
func (m *MappedFile) Mapped() bool { return m.mapping != nil }

// Close releases the mapping, if any.
func (m *MappedFile) Close() error {
	if m.mapping == nil {
		return nil
	}
	b := m.mapping
	m.mapping = nil
	storeMetrics.MappedBytes.Add(-int64(len(b)))
	return munmapFile(b)
}

// Open maps the store at path and parses it with ReadBytes, adopting the blob
// zero-copy from the mapping; on a platform without mmap, or for a file mmap
// refuses, the store is read into the heap and parsed there instead, so
// Open works everywhere and is merely fastest where it matters. The caller
// owns the returned MappedFile and must Close it when the labels are no
// longer in use.
func Open(path string) (*MappedFile, error) {
	start := time.Now()
	defer func() { storeMetrics.OpenNs.ObserveDuration(time.Since(start)) }()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 || size > int64(maxInt) {
		return openFallback(f)
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		return openFallback(f)
	}
	store, err := ReadBytes(data)
	if err != nil {
		_ = munmapFile(data)
		return nil, err
	}
	storeMetrics.OpenMmap.Inc()
	storeMetrics.MappedBytes.Add(int64(len(data)))
	storeMetrics.BlobBytes.Add(int64(len(store.arena)))
	return &MappedFile{File: store, mapping: data}, nil
}

// openFallback loads f through Read from its start: one heap copy of the file,
// parsed by the same parser as a mapping, padding masked.
func openFallback(f *os.File) (*MappedFile, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	store, err := Read(f)
	if err != nil {
		return nil, err
	}
	storeMetrics.OpenCopy.Inc()
	storeMetrics.BlobBytes.Add(int64(len(store.arena)))
	return &MappedFile{File: store}, nil
}

const maxInt = int(^uint(0) >> 1)
