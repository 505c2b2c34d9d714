// Package labelstore persists labelings to a compact binary format, so that
// labels can be computed once and then distributed to the peers that answer
// queries (the deployment model of Section 1: structural information
// disseminated to vertices and stored locally).
//
// Format (all integers little-endian or uvarint) — one header, one body blob,
// the byte-packed slab of the encode pipeline verbatim:
//
//	magic   "PLLB"               4 bytes
//	version u8                   3
//	scheme  uvarint len + bytes  scheme name (informational)
//	params  uvarint count, then  key/value string pairs (decoder metadata,
//	        per pair: len+bytes   e.g. "n", "w")
//	n       uvarint              number of labels
//	lens    n × uvarint          per-label bit lengths (always id-indexed)
//	perm    uvarint R,           rank→label layout permutation, run-coded
//	        R × uvarint length,  (core.AppendPermutation, the one codec of the
//	        ⌈n·b/8⌉ bytes        order, which the shard-info handshake sends
//	                             too): its R maximal increasing runs'
//	                             lengths, then n fields of
//	                             b = ⌈log₂ R⌉ bits naming each vertex's run,
//	                             MSB first, the last byte's tail zero;
//	                             present iff params carries "layout" (value
//	                             "runs"). R ≤ #distinct degrees = O(n^(1/α)),
//	                             so b ≈ (log₂ n)/α + O(1) bits per vertex
//	shard   uvarint index,       shard map of a partitioned store; present
//	        u8 fn, uvarint owned iff params carries "shards" (see shard.go)
//	blob    uvarint byte count,  the labels back to back in rank order, label
//	        then the slab        perm[r] (or label r when no perm) r-th, each
//	                             starting on a byte; the tail zero-padded to
//	                             a whole 64-bit word
//
// The blob is byte-identical to the in-memory arena of a core.Labeling — of
// every scheme: a labeling assembled label by label (nbrlist, adjmatrix,
// forest, onequery) is packed into one as it is built — so Write is a header
// plus a single contiguous copy, and NewPermutedArenaFile (order nil for id
// order) is how any labeling becomes a store. One parser reads it back from
// an in-memory image: ReadBytes over a caller's bytes, Open over a mapping of
// the file (or, without mmap, a heap copy), Read over everything an io.Reader
// delivers. Engines (engine.go) builds the engine that answers a loaded
// store — the one store-to-engine rule its readers share — over the blob with
// zero relocation. A degree-ordered arena (core.LayoutDegree) carries its
// permutation block: readers reconstruct id-indexed lookup from it, readers
// too old to know the "layout" param fail loudly on the extra block (a
// blob-length mismatch) rather than mis-answer, and a store whose "layout" is
// "degree" — the ⌈log₂ n⌉-bit identifier block this container held before
// the run-coded one — is refused by name (re-run pllabel). A store without
// the block is in vertex order: a nbrlist store, whose vertex v carries
// identifier v, is served so; an id-ordered fat/thin store, as pllabel wrote
// before the degree layout, still parses but is refused at Engines (re-run
// pllabel), since its ranks are not its identifiers. A distance store (params
// carry "scheme" = pll | bdist, see scheme.go) rides the same body with no
// extra block — its engine parameters live entirely in the params. The
// per-label version 1 and the word-aligned version 2 (every label on a
// 64-bit word, the permutation as uvarints) are no longer read or written:
// every reader refuses them by number (re-run pllabel).
package labelstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/bitstr"
	"repro/internal/core"
)

// ErrFormat is returned when the input is not a valid label store.
var ErrFormat = errors.New("labelstore: malformed input")

var magic = [4]byte{'P', 'L', 'L', 'B'}

// formatVersion is the one container this package reads and writes: a single
// byte-packed slab blob behind the header blocks (lens, permutation, shard).
const formatVersion = 3

// checkVersion refuses every other container, the retired per-label
// version 1 and word-aligned version 2 included.
func checkVersion(ver byte) error {
	if ver != formatVersion {
		return fmt.Errorf("%w: unsupported version %d (re-run pllabel)", ErrFormat, ver)
	}
	return nil
}

// layoutKey is the params entry announcing a physically permuted blob;
// its presence means a permutation block sits between the lens block and the
// blob. The only value read is layoutRuns, the run-coded block
// (core.DecodePermutation). layoutDegree, the ⌈log₂ n⌉-bit identifier block
// stores carried before it, is refused by name (re-run pllabel); any other
// value is rejected — misreading a permuted slab as id-ordered would silently
// answer queries from the wrong labels.
const (
	layoutKey    = "layout"
	layoutRuns   = "runs"
	layoutDegree = "degree"
)

// Hard caps on header-declared sizes: a corrupt or adversarial header must
// fail validation before it can drive a large allocation or an out-of-bounds
// view.
const (
	maxParams    = 1 << 16
	maxLabels    = 1 << 31
	maxString    = 1 << 20
	maxLabelBits = 1 << 34
)

// File is an in-memory representation of a label store.
type File struct {
	Scheme string
	Params map[string]string
	// Labels holds the id-indexed per-label strings of a whole-labeling store
	// the readers (Read, ReadBytes, Open) produced — views into the arena. It
	// is nil on a shard store, which is only ever served through the engine,
	// and on what the arena constructors build: a file on its way to Write is
	// described by the arena alone.
	Labels []bitstr.String
	// arena is the byte-packed slab holding every label, with bitLens the
	// id-indexed per-label bit lengths. Set by the arena constructors and by
	// the readers; a File without one cannot be written.
	arena   []byte
	bitLens []int
	// order, when non-nil, is the arena's physical layout permutation: slab
	// rank r holds label order[r].
	order []int32
	// shard, when non-nil, marks one shard of a partitioned store: owned
	// vertices (plus replicated fat labels) in full, foreign thin labels
	// absent. See shard.go.
	shard *shardBlock
	// dist, when non-nil, marks a distance store (scheme kind pll or bdist)
	// and carries the engine parameters. See scheme.go.
	dist *core.DistParams
}

// N returns the number of labels.
func (f *File) N() int { return len(f.bitLens) }

// NewPermutedArenaFile builds a store over a byte-packed label slab (the
// arena of a core.Labeling, see Labeling.ArenaLayout): the label at slab rank
// r is label order[r] with bitLens[order[r]] bits; order nil is the identity,
// label v the v-th in the slab, and otherwise must be a permutation
// of 0..len(bitLens)-1. Write serializes it as one header and the slab as a
// single body blob, with a "layout" param and the permutation block when
// order is set. The description is validated and the padding zeroed
// (adoptArena); no per-label view is built.
func NewPermutedArenaFile(scheme string, params map[string]string, slab []byte, bitLens []int, order []int32) (*File, error) {
	f := &File{Scheme: scheme, Params: params, arena: slab, bitLens: bitLens, order: order}
	if err := f.adoptArena(true); err != nil {
		return nil, err
	}
	return f, nil
}

// adoptArena is the one pass every arena-backed File makes over its slab
// before anyone may use it, constructor-built and loaded alike. A
// bitstr.SlabWalk checks the description — the permutation, and that the
// labels tile the slab exactly. With mask, the padding bits of each label's
// final byte are zeroed in place, so that equal labels compare equal whoever
// produced the slab; ReadBytes, whose slab may be a read-only mapping, passes
// false. If the caller preallocated Labels, they are filled with the
// id-indexed views; if it set shard, the slab must be permuted and every
// thin label outside the owned range absent (0 bits) — the one check that
// reads the body, one bit of each foreign label present.
func (f *File) adoptArena(mask bool) error {
	n := len(f.bitLens)
	header := 1 + bitstr.WidthFor(uint64(n))
	var lo, hi int
	if sb := f.shard; sb != nil {
		if f.order == nil {
			return fmt.Errorf("%w: shard %d/%d is id-ordered; a shard store carries the degree layout (re-run pllabel -shards)",
				ErrFormat, sb.m.Index, sb.m.Count)
		}
		lo, hi = sb.m.Range(n)
	}
	walk := bitstr.NewSlabWalk(len(f.arena), f.bitLens, f.order)
	for walk.Next() {
		v, off := walk.Label()
		bits := f.bitLens[v]
		// The walk has bounded the label inside the slab: its last byte is
		// masked in place, and a view is cut only for a Labels table.
		if pad := bits & 7; mask && pad != 0 {
			f.arena[(off+int64(bits))>>3] &= 0xFF << (8 - pad)
		}
		if f.Labels != nil {
			f.Labels[v] = bitstr.SlabLabel(f.arena, off, bits)
		}
		if sb := f.shard; sb != nil {
			if err := sb.checkLabel(f.arena, v, off, bits, header, v < lo || v >= hi); err != nil {
				return err
			}
		}
	}
	if err := walk.Tiled(); err != nil {
		return fmt.Errorf("%w: arena: %v", ErrFormat, err)
	}
	return nil
}

// ArenaLayout returns the backing slab, the per-label bit lengths, and the
// physical layout permutation (nil for the id-ordered layout) — the triple
// core.NewQueryEngineFromPermutedArena accepts. ok is true for every File a
// constructor or a reader of this package returned.
func (f *File) ArenaLayout() (slab []byte, bitLens []int, order []int32, ok bool) {
	return f.arena, f.bitLens, f.order, f.arena != nil
}

// IntParam returns an integer metadata parameter.
func (f *File) IntParam(key string) (int, error) {
	v, ok := f.Params[key]
	if !ok {
		return 0, fmt.Errorf("%w: missing param %q", ErrFormat, key)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%w: param %q: %v", ErrFormat, key, err)
	}
	return n, nil
}

// Write serializes the store: the header, then the arena as one blob. A File
// with no arena (one assembled by hand rather than by an arena constructor)
// is refused — build it with NewPermutedArenaFile instead.
func Write(w io.Writer, f *File) error {
	if f.arena == nil {
		return errors.New("labelstore: store has no arena (build it with NewPermutedArenaFile)")
	}
	if f.dist != nil && f.shard != nil {
		// Distance stores are never sharded; refusing here keeps the two
		// readers' rejection unreachable for files this package itself wrote.
		return fmt.Errorf("labelstore: sharded store cannot declare distance scheme %q", f.dist.Kind)
	}
	bw := bufio.NewWriterSize(w, writeBuffer)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(formatVersion); err != nil {
		return err
	}
	if err := writeString(bw, f.Scheme); err != nil {
		return err
	}
	// A permuted store must announce its layout and a sharded store its shard
	// count: readers key the permutation and shard blocks off these params,
	// so param and block are written (and read) as one unit.
	params := f.Params
	if f.order != nil || f.shard != nil || f.dist != nil {
		params = make(map[string]string, len(f.Params)+5)
		for k, v := range f.Params {
			params[k] = v
		}
		if f.order != nil {
			params[layoutKey] = layoutRuns
		}
		if f.shard != nil {
			params[shardsKey] = strconv.Itoa(f.shard.m.Count)
		}
		if f.dist != nil { // scheme kind + its companion engine params
			params[schemeKey] = f.dist.Kind.String()
			params[distWidthKey] = strconv.Itoa(f.dist.DW)
			if f.dist.Kind == core.DistBounded {
				params[distBoundKey] = strconv.Itoa(f.dist.F)
				params[distNFatKey] = strconv.Itoa(f.dist.NFat)
			}
		}
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic files
	if err := writeUvarint(bw, uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := writeString(bw, k); err != nil {
			return err
		}
		if err := writeString(bw, params[k]); err != nil {
			return err
		}
	}
	if err := writeUvarint(bw, uint64(len(f.bitLens))); err != nil {
		return err
	}
	if err := writeUvarints(bw, f.bitLens); err != nil {
		return err
	}
	if f.order != nil { // permutation block (absent when id-ordered)
		if _, err := bw.Write(core.AppendPermutation(bw.AvailableBuffer(), f.order)); err != nil {
			return err
		}
	}
	if f.shard != nil { // shard block (absent for whole-labeling stores)
		if err := writeUvarint(bw, uint64(f.shard.m.Index)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(f.shard.m.Fn)); err != nil {
			return err
		}
		if err := writeUvarint(bw, uint64(f.shard.owned)); err != nil {
			return err
		}
	}
	if err := writeUvarint(bw, uint64(len(f.arena))); err != nil {
		return err
	}
	if _, err := bw.Write(f.arena); err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses a store written by Write from r. It consumes r to EOF — so it
// allocates what the stream delivers, never what a header declares — and runs
// ReadBytes' parser over that private copy, zeroing the padding bits of each
// label's final byte in place. Bytes after the blob are ignored, as
// ReadBytes ignores them.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading store: %w", ErrFormat, err)
	}
	return parse(data, true)
}

// ReadBytes parses a store from an in-memory byte slice — typically a
// memory-mapped file (see Open). The body blob is adopted zero-copy: the
// returned File's arena is a sub-slice of data and the labels are views into
// it, so nothing is relocated and nothing is written. data must therefore
// stay alive (and unmodified) for the lifetime of the File; a read-only
// mapping is fine because, unlike Read, ReadBytes never masks padding bits in
// place. Files written by Write carry zero padding (the slab writer
// guarantees it), so label equality is unaffected; a hand-built file with
// dirty padding would compare labels unequal while still answering queries
// correctly (the query engine only probes bits inside each label's declared
// length).
func ReadBytes(data []byte) (*File, error) { return parse(data, false) }

// parse is the store parser behind every reader. It decodes the header from
// the magic to the blob length, checking each declared size against the caps
// and against the bytes actually present before it sizes a table, then adopts
// the blob in place as the arena — masking the padding when mask is set
// (adoptArena).
func parse(data []byte, mask bool) (*File, error) {
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
	labelBytes := 0
	for i := range bitLens {
		bits, err := p.uvarint("label length")
		if err != nil {
			return nil, fmt.Errorf("%w: label %d length: %v", ErrFormat, i, err)
		}
		if bits > maxLabelBits {
			return nil, fmt.Errorf("%w: label %d has %d bits", ErrFormat, i, bits)
		}
		bitLens[i] = int(bits)
		labelBytes += bitstr.SlabLabelBytes(int(bits))
	}
	var order []int32
	if lay, ok := params[layoutKey]; ok {
		switch lay {
		case layoutRuns:
			var size int
			if order, size, err = core.DecodePermutation(p.data[p.off:], int(n)); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrFormat, err)
			}
			p.off += size
		case layoutDegree:
			return nil, fmt.Errorf("%w: layout %q: the ⌈log₂ n⌉-bit permutation block is retired for the run-coded one (re-run pllabel)", ErrFormat, lay)
		default:
			return nil, fmt.Errorf("%w: unknown layout %q", ErrFormat, lay)
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
	need := int64(bitstr.SlabSize(labelBytes))
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
	f := &File{Scheme: scheme, Params: params, arena: arena, bitLens: bitLens, order: order, shard: sb, dist: dist}
	if sb == nil {
		f.Labels = make([]bitstr.String, n)
	}
	if err := f.adoptArena(mask); err != nil {
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

// writeBuffer is Write's buffer: large enough that a million-label header
// reaches the file in a handful of writes.
const writeBuffer = 1 << 20

// writeUvarint encodes v straight into the writer's buffer: no scratch array
// for Write to take the address of, hence no allocation per value.
func writeUvarint(w *bufio.Writer, v uint64) error {
	if w.Available() < binary.MaxVarintLen64 {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	_, err := w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
	return err
}

// writeUvarints encodes a block of non-negative values back to back, keeping
// the append cursor in hand across values and handing the buffer over only
// when it fills.
func writeUvarints(w *bufio.Writer, vs []int) error {
	buf := w.AvailableBuffer()
	for _, v := range vs {
		if cap(buf)-len(buf) < binary.MaxVarintLen64 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			buf = w.AvailableBuffer()
		}
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	_, err := w.Write(buf)
	return err
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}
