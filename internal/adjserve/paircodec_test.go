package adjserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// The pair codec's tests read and write packed fields one bit at a time,
// straight from the package doc's wire format, so they never share a bug
// with the word-at-a-time codec they check.

// refPack packs fields as w-bit values, MSB first, zero-padded to a byte.
func refPack(fields []uint64, w uint) []byte {
	out := make([]byte, (len(fields)*int(w)+7)/8)
	pos := 0
	for _, x := range fields {
		for b := int(w) - 1; b >= 0; b-- {
			if x>>uint(b)&1 != 0 {
				out[pos/8] |= 0x80 >> (pos % 8)
			}
			pos++
		}
	}
	return out
}

// refFields flattens pairs into the field order on the wire: u0, v0, u1, ...
func refFields(pairs [][2]int) []uint64 {
	fields := make([]uint64, 0, 2*len(pairs))
	for _, p := range pairs {
		fields = append(fields, uint64(p[0]), uint64(p[1]))
	}
	return fields
}

// refPairReq is a pair-batch request payload built by hand: op, uvarint
// count, width byte w, pairs packed at w bits, then tail.
func refPairReq(op byte, count int, w uint, pairs [][2]int, tail ...byte) []byte {
	out := append(binary.AppendUvarint([]byte{op}, uint64(count)), byte(w))
	return append(append(out, refPack(refFields(pairs), w)...), tail...)
}

// refReadPairs is the spec's reader for a pair-batch body: uvarint count (at
// most maxBatch), a width byte in 1..64, then exactly ceil(2·count·w/8) bytes
// of fields, read one bit at a time. ok is false for any body the spec
// refuses.
func refReadPairs(body []byte, maxBatch int) (pairs [][2]uint64, ok bool) {
	count, k := binary.Uvarint(body)
	if k <= 0 || count > uint64(maxBatch) || len(body) == k {
		return nil, false
	}
	w, fields := uint64(body[k]), body[k+1:]
	if w < 1 || w > 64 || uint64(len(fields)) != (2*count*w+7)/8 {
		return nil, false
	}
	pos := uint64(0)
	read := func() uint64 {
		var x uint64
		for range w {
			x = x<<1 | uint64(fields[pos/8]>>(7-pos%8)&1)
			pos++
		}
		return x
	}
	pairs = make([][2]uint64, count)
	for i := range pairs {
		pairs[i][0] = read()
		pairs[i][1] = read()
	}
	return pairs, true
}

// decodeBody runs the production reader over a pair-batch body the way the
// server does: the header, then the fields block by block.
func decodeBody(body []byte, maxBatch int) ([][2]int, error) {
	count, w, fields, err := readPairHeader(body, maxBatch)
	if err != nil {
		return nil, err
	}
	out := make([][2]int, 0, count)
	var blk [core.ProbeBlock][2]int
	for i := 0; i < count; {
		k := min(core.ProbeBlock, count-i)
		fields = decodePairs(blk[:k], fields, w)
		out = append(out, blk[:k]...)
		i += k
	}
	if len(fields) != 0 {
		return nil, fmt.Errorf("%d field bytes left over", len(fields))
	}
	return out, nil
}

// fuzzPairs derives count pairs of exactly w bits from data (bytes past its
// end read as zero) with the top bit forced on the last field, so the
// encoder must pick w itself.
func fuzzPairs(data []byte, count int, w uint) [][2]int {
	var word [8]byte
	field := func(i int) uint64 {
		clear(word[:])
		if lo := 8 * i; lo < len(data) {
			copy(word[:], data[lo:])
		}
		x := binary.LittleEndian.Uint64(word[:])
		if w < 64 {
			x &= 1<<w - 1
		}
		return x
	}
	pairs := make([][2]int, count)
	for i := range pairs {
		pairs[i] = [2]int{int(field(2 * i)), int(field(2*i + 1))}
	}
	pairs[count-1][1] |= int(uint64(1) << (w - 1))
	return pairs
}

// withGarbage returns b in a buffer whose spare capacity is filled with
// 0xff, so a decoder that lets a byte past len(b) into an identifier is
// caught.
func withGarbage(b []byte) []byte {
	buf := bytes.Repeat([]byte{0xff}, len(b)+2*pairSlack)
	return buf[:copy(buf, b)]
}

// FuzzPairCodec checks the packed pair codec two ways. (a) Round trip: for
// count pairs at every width 1..64 (top bits set, so bit 63 too), appendPairs
// picks exactly that width, writes exactly ceil(2·count·w/8) field bytes that
// the bit-by-bit reference reads back as the pairs, and the production reader
// returns them. (b) Arbitrary count, width and field bytes: the production
// reader never panics, refuses exactly the bodies the reference refuses,
// returns exactly the reference's pairs otherwise, and answers the same
// whether the capacity behind the body holds garbage or nothing at all.
func FuzzPairCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []uint8{1, 2, 14, 20, 28, 29, 57, 63, 64} {
		data := make([]byte, 64)
		rng.Read(data)
		f.Add(data, w, uint16(33), []byte{0x6c})
	}
	f.Add([]byte{}, uint8(2), uint16(2), []byte{0x6c})         // the doc's example
	f.Add([]byte{1}, uint8(0), uint16(0), []byte{})            // width 0
	f.Add([]byte{1}, uint8(65), uint16(1), make([]byte, 17))   // width 65
	f.Add([]byte{1}, uint8(17), uint16(40), make([]byte, 169)) // one byte short
	f.Add([]byte{1}, uint8(17), uint16(40), make([]byte, 171)) // one byte over
	f.Add([]byte{1}, uint8(64), uint16(32), bytes.Repeat([]byte{0xff}, 512))

	f.Fuzz(func(t *testing.T, data []byte, w8 uint8, count16 uint16, fields []byte) {
		// (a) Round trip.
		w, count := 1+uint(w8)%64, 1+int(count16)%300
		pairs := fuzzPairs(data, count, w)
		body := appendPairs(nil, pairs)
		k := binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(count))
		if got := uint(body[k]); got != w {
			t.Fatalf("%d pairs of %d bits: encoded at width %d", count, w, got)
		}
		if got, want := len(body)-k-1, (2*count*int(w)+7)/8; got != want {
			t.Fatalf("%d pairs of %d bits: %d field bytes, want %d", count, w, got, want)
		}
		ref, ok := refReadPairs(body, DefaultMaxBatch)
		if !ok {
			t.Fatalf("%d pairs of %d bits: the reference refuses the encoding %x", count, w, body)
		}
		for i, p := range pairs {
			if ref[i] != [2]uint64{uint64(p[0]), uint64(p[1])} {
				t.Fatalf("pair %d of %d at %d bits: encoded %x, want %x", i, count, w, ref[i], p)
			}
		}
		for _, b := range [][]byte{body, slices.Clip(body)} {
			got, err := decodeBody(b, DefaultMaxBatch)
			if err != nil || !slices.Equal(got, pairs) {
				t.Fatalf("%d pairs of %d bits: decoded %v, %v; want %v", count, w, got, err, pairs)
			}
		}

		// (b) Arbitrary bodies.
		raw := append(binary.AppendUvarint(nil, uint64(count16)), w8)
		raw = append(raw, fields...)
		want, ok := refReadPairs(raw, DefaultMaxBatch)
		var first [][2]int
		for j, b := range [][]byte{withGarbage(raw), slices.Clip(slices.Clone(raw))} {
			got, err := decodeBody(b, DefaultMaxBatch)
			if (err == nil) != ok {
				t.Fatalf("body %x: decode error %v, the reference accepts: %v", raw, err, ok)
			}
			if j == 0 {
				first = got
			} else if !slices.Equal(got, first) {
				t.Fatalf("body %x: decoded %v with garbage behind it, %v without", raw, first, got)
			}
			for i := range want {
				if g := [2]uint64{uint64(got[i][0]), uint64(got[i][1])}; g != want[i] {
					t.Fatalf("body %x: pair %d decoded %x, the reference reads %x", raw, i, g, want[i])
				}
			}
		}
	})
}

// pairSink keeps BenchmarkPairCodec's decoded pairs live.
var pairSink [2]int

// BenchmarkPairCodec is the pair codec alone: encode and decode of 4096
// pairs at the field widths of a 2^14-vertex store, a 2^20-vertex store and
// the widest frame (bit 63 set), in ns/pair. CI gates every row at 0
// allocs/op.
func BenchmarkPairCodec(b *testing.B) {
	const count = 4096
	for _, w := range []uint{14, 20, 64} {
		rng := rand.New(rand.NewSource(int64(w)))
		pairs := make([][2]int, count)
		for i := range pairs {
			pairs[i] = [2]int{int(rng.Uint64() >> (64 - w)), int(rng.Uint64() >> (64 - w))}
		}
		pairs[0][0] = int(uint64(1)<<(w-1) | uint64(pairs[0][0]))
		buf := appendPairs(nil, pairs)
		b.Run(fmt.Sprintf("encode/w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				buf = appendPairs(buf[:0], pairs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/pair")
		})
		b.Run(fmt.Sprintf("decode/w=%d", w), func(b *testing.B) {
			var blk [core.ProbeBlock][2]int
			b.ReportAllocs()
			for range b.N {
				n, w, fields, err := readPairHeader(buf, DefaultMaxBatch)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i += core.ProbeBlock {
					fields = decodePairs(blk[:min(core.ProbeBlock, n-i)], fields, w)
				}
			}
			pairSink = blk[0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/pair")
		})
	}
}
