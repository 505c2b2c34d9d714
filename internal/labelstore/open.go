package labelstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/internal/bitstr"
)

// ReadBytes parses a store from an in-memory byte slice — typically a
// memory-mapped file (see Open). The body blob is adopted zero-copy: the
// returned File's arena is a sub-slice of data and the labels are views into
// it, so nothing is relocated and nothing is written. data must therefore
// stay alive (and unmodified) for the lifetime of the File; a read-only
// mapping is fine because, unlike the streaming Read path, ReadBytes never
// masks padding bits in place. Files written by Write carry zero padding (the
// slab writer guarantees it), so label equality is unaffected; a hand-built
// file with dirty padding would compare labels unequal while still answering
// queries correctly (the query engine only probes bits inside each label's
// declared length).
func ReadBytes(data []byte) (*File, error) {
	p := &byteParser{data: data}
	if err := p.need(5); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrFormat, err)
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:4])
	}
	if err := checkVersion(data[4]); err != nil {
		return nil, err
	}
	p.off = 5
	scheme, err := p.string()
	if err != nil {
		return nil, err
	}
	nParams, err := p.uvarint("param count")
	if err != nil {
		return nil, err
	}
	if nParams > maxParams {
		return nil, fmt.Errorf("%w: %d params", ErrFormat, nParams)
	}
	params := make(map[string]string, nParams)
	for i := uint64(0); i < nParams; i++ {
		k, err := p.string()
		if err != nil {
			return nil, err
		}
		v, err := p.string()
		if err != nil {
			return nil, err
		}
		params[k] = v
	}
	n, err := p.uvarint("label count")
	if err != nil {
		return nil, err
	}
	if n > maxLabels {
		return nil, fmt.Errorf("%w: %d labels", ErrFormat, n)
	}
	if n > uint64(len(data)-p.off) {
		// Every length takes at least a byte: refuse before the count sizes a
		// table.
		return nil, fmt.Errorf("%w: %d labels declared over %d bytes", ErrFormat, n, len(data)-p.off)
	}
	bitLens := make([]int, n)
	var words int64
	for i := range bitLens {
		bits, err := p.uvarint("label length")
		if err != nil {
			return nil, fmt.Errorf("%w: label %d length: %v", ErrFormat, i, err)
		}
		if bits > maxLabelBits {
			return nil, fmt.Errorf("%w: label %d has %d bits", ErrFormat, i, bits)
		}
		bitLens[i] = int(bits)
		words += int64(bitstr.SlabWords(int(bits)))
	}
	var order []int32
	if lay, ok := params[layoutKey]; ok {
		if lay != layoutDegree {
			return nil, fmt.Errorf("%w: unknown layout %q", ErrFormat, lay)
		}
		// Range-checked here, permutation-checked (no label missing or
		// repeated) by adoptArena below: a truncated or garbage block errors
		// at load, it can never mis-answer.
		order = make([]int32, n)
		for i := range order {
			v, err := p.uvarint("layout permutation entry")
			if err != nil {
				return nil, fmt.Errorf("%w: layout permutation entry %d: %v", ErrFormat, i, err)
			}
			if v >= n {
				return nil, fmt.Errorf("%w: layout permutation entry %d = %d of %d labels", ErrFormat, i, v, n)
			}
			order[i] = int32(v)
		}
	}
	var sb *shardBlock
	if val, ok := params[shardsKey]; ok {
		count, err := parseShardCount(val)
		if err != nil {
			return nil, err
		}
		index, err := p.uvarint("shard index")
		if err != nil {
			return nil, err
		}
		if err := p.need(1); err != nil {
			return nil, fmt.Errorf("%w: shard ownership function: %v", ErrFormat, err)
		}
		fnByte := p.data[p.off]
		p.off++
		owned, err := p.uvarint("shard owned count")
		if err != nil {
			return nil, err
		}
		if sb, err = newShardBlock(count, index, fnByte, owned, int(n)); err != nil {
			return nil, err
		}
	}
	dist, err := parseSchemeParams(params, int(n))
	if err != nil {
		return nil, err
	}
	if dist != nil && sb != nil {
		return nil, fmt.Errorf("%w: sharded store declares distance scheme %q", ErrFormat, dist.Kind)
	}
	// Validate the declared geometry before any view is constructed: the
	// blob-length field must agree with the bit lengths, and the blob must
	// actually be present in data — a short or truncated body fails here, at
	// load, never at query time.
	need := words << 3
	blobLen, err := p.uvarint("blob length")
	if err != nil {
		return nil, err
	}
	if err := checkBlobLen(int64(blobLen), need); err != nil {
		return nil, err
	}
	if int64(len(data)-p.off) < need {
		return nil, fmt.Errorf("%w: blob truncated: %d bytes of body, lengths require %d",
			ErrFormat, len(data)-p.off, need)
	}
	arena := data[p.off : p.off+int(need) : p.off+int(need)]
	f := &File{Scheme: scheme, Params: params, Labels: make([]bitstr.String, n),
		arena: arena, bitLens: bitLens, order: order, shard: sb, dist: dist}
	// Unmasked: data may be a read-only mapping.
	if err := f.adoptArena(false); err != nil {
		return nil, err
	}
	return f, nil
}

// checkBlobLen validates the declared blob byte count against the size the
// per-label bit lengths occupy. The two mismatch directions get distinct
// messages: a short blob is the truncation/corruption case, an oversized one
// a disagreeing header.
func checkBlobLen(blobLen, need int64) error {
	switch {
	case blobLen < need:
		return fmt.Errorf("%w: blob of %d bytes too short, declared lengths require %d", ErrFormat, blobLen, need)
	case blobLen > need:
		return fmt.Errorf("%w: blob of %d bytes, declared lengths occupy only %d", ErrFormat, blobLen, need)
	}
	return nil
}

// byteParser is a bounds-checked cursor over an in-memory store image.
type byteParser struct {
	data []byte
	off  int
}

func (p *byteParser) need(n int) error {
	if len(p.data)-p.off < n {
		return fmt.Errorf("need %d bytes, have %d", n, len(p.data)-p.off)
	}
	return nil
}

func (p *byteParser) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(p.data[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: %s: truncated or overlong uvarint", ErrFormat, what)
	}
	p.off += n
	return v, nil
}

func (p *byteParser) string() (string, error) {
	n, err := p.uvarint("string length")
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("%w: string of %d bytes", ErrFormat, n)
	}
	if err := p.need(int(n)); err != nil {
		return "", fmt.Errorf("%w: string payload: %v", ErrFormat, err)
	}
	s := string(p.data[p.off : p.off+int(n)])
	p.off += int(n)
	return s, nil
}

// MappedFile is a File backed by a memory-mapped store file. On platforms
// with mmap support the arena (and every label view) is a window into the
// page cache, and any number of processes serving the same file share one
// physical copy of the labels. Open costs an O(n) parse of the
// header — the n bit lengths, the permutation, one walk that validates them
// and builds the n label views — and leaves the body alone: nothing is
// copied, and the only body bytes read are the shard-stub check's, one bit of
// each foreign label longer than a stub. Close unmaps; the File and anything
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
// refuses, the store is loaded through the plain copying reader instead, so
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

// openFallback reads the store sequentially from the start of f.
func openFallback(f *os.File) (*MappedFile, error) {
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	store, err := Read(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	storeMetrics.OpenCopy.Inc()
	storeMetrics.BlobBytes.Add(int64(len(store.arena)))
	return &MappedFile{File: store}, nil
}

const maxInt = int(^uint(0) >> 1)
