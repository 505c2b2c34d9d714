package bitstr

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyString(t *testing.T) {
	var s String
	if s.Len() != 0 {
		t.Fatalf("empty string has length %d", s.Len())
	}
	if _, err := s.Bit(0); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("Bit(0) on empty: err = %v, want ErrOutOfBounds", err)
	}
}

func TestAppendBitRoundTrip(t *testing.T) {
	pattern := []bool{true, false, true, true, false, false, false, true, true, false, true}
	var b Builder
	for _, bit := range pattern {
		b.AppendBit(bit)
	}
	s := b.String()
	if s.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(pattern))
	}
	for i, want := range pattern {
		got, err := s.Bit(i)
		if err != nil {
			t.Fatalf("Bit(%d): %v", i, err)
		}
		if got != want {
			t.Errorf("Bit(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestAppendUintWidths(t *testing.T) {
	tests := []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9}, {1 << 20, 21},
		{0xDEADBEEF, 32}, {^uint64(0), 64}, {1, 64}, {0, 64},
		{42, 7}, {1023, 10}, {1024, 11},
	}
	var b Builder
	for _, tc := range tests {
		b.AppendUint(tc.v, tc.width)
	}
	r := NewReader(b.String())
	for _, tc := range tests {
		got, err := r.ReadUint(tc.width)
		if err != nil {
			t.Fatalf("ReadUint(%d): %v", tc.width, err)
		}
		if got != tc.v {
			t.Errorf("ReadUint(%d) = %d, want %d", tc.width, got, tc.v)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestAppendUintMasksHighBits(t *testing.T) {
	var b Builder
	b.AppendUint(0xFF, 4) // only low 4 bits should be kept
	r := NewReader(b.String())
	got, err := r.ReadUint(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xF {
		t.Errorf("got %d, want 15", got)
	}
}

func TestAppendUintZeroWidth(t *testing.T) {
	var b Builder
	b.AppendUint(123, 0)
	if b.Len() != 0 {
		t.Errorf("zero-width append wrote %d bits", b.Len())
	}
}

func TestGammaRoundTrip(t *testing.T) {
	var b Builder
	values := []uint64{1, 2, 3, 4, 5, 15, 16, 17, 1000, 1 << 32, ^uint64(0)}
	for _, v := range values {
		if err := b.AppendGamma(v); err != nil {
			t.Fatalf("AppendGamma(%d): %v", v, err)
		}
	}
	r := NewReader(b.String())
	for _, want := range values {
		got, err := r.ReadGamma()
		if err != nil {
			t.Fatalf("ReadGamma: %v", err)
		}
		if got != want {
			t.Errorf("ReadGamma = %d, want %d", got, want)
		}
	}
}

func TestGammaZeroRejected(t *testing.T) {
	var b Builder
	if err := b.AppendGamma(0); !errors.Is(err, ErrMalformed) {
		t.Errorf("AppendGamma(0) err = %v, want ErrMalformed", err)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	var b Builder
	values := []uint64{1, 2, 3, 8, 100, 12345, 1 << 40, ^uint64(0)}
	for _, v := range values {
		if err := b.AppendDelta(v); err != nil {
			t.Fatalf("AppendDelta(%d): %v", v, err)
		}
	}
	r := NewReader(b.String())
	for _, want := range values {
		got, err := r.ReadDelta()
		if err != nil {
			t.Fatalf("ReadDelta: %v", err)
		}
		if got != want {
			t.Errorf("ReadDelta = %d, want %d", got, want)
		}
	}
}

func TestGamma0Delta0(t *testing.T) {
	var b Builder
	for v := uint64(0); v < 50; v++ {
		b.AppendGamma0(v)
		b.AppendDelta0(v)
	}
	r := NewReader(b.String())
	for v := uint64(0); v < 50; v++ {
		g, err := r.ReadGamma0()
		if err != nil || g != v {
			t.Fatalf("ReadGamma0 = %d,%v want %d", g, err, v)
		}
		d, err := r.ReadDelta0()
		if err != nil || d != v {
			t.Fatalf("ReadDelta0 = %d,%v want %d", d, err, v)
		}
	}
}

func TestCodeLengths(t *testing.T) {
	for _, v := range []uint64{1, 2, 3, 7, 8, 255, 256, 1 << 30} {
		var b Builder
		if err := b.AppendGamma(v); err != nil {
			t.Fatal(err)
		}
		if b.Len() != GammaLen(v) {
			t.Errorf("gamma(%d): wrote %d bits, GammaLen = %d", v, b.Len(), GammaLen(v))
		}
		var b2 Builder
		if err := b2.AppendDelta(v); err != nil {
			t.Fatal(err)
		}
		if b2.Len() != DeltaLen(v) {
			t.Errorf("delta(%d): wrote %d bits, DeltaLen = %d", v, b2.Len(), DeltaLen(v))
		}
	}
}

func TestAppendStringAligned(t *testing.T) {
	var a, b Builder
	a.AppendUint(0xAB, 8)
	b.AppendUint(0xCD, 8)
	var c Builder
	c.AppendString(a.String())
	c.AppendString(b.String())
	r := NewReader(c.String())
	v, err := r.ReadUint(16)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xABCD {
		t.Errorf("got %#x, want 0xabcd", v)
	}
}

func TestAppendStringUnaligned(t *testing.T) {
	var inner Builder
	inner.AppendUint(0b1011001, 7)
	var outer Builder
	outer.AppendBit(true)
	outer.AppendBit(false)
	outer.AppendBit(true)
	outer.AppendString(inner.String())
	r := NewReader(outer.String())
	head, err := r.ReadUint(3)
	if err != nil {
		t.Fatal(err)
	}
	if head != 0b101 {
		t.Errorf("head = %b, want 101", head)
	}
	body, err := r.ReadUint(7)
	if err != nil {
		t.Fatal(err)
	}
	if body != 0b1011001 {
		t.Errorf("body = %b, want 1011001", body)
	}
}

func TestReaderSeek(t *testing.T) {
	var b Builder
	b.AppendUint(0xFFFF, 16)
	r := NewReader(b.String())
	if err := r.Seek(8); err != nil {
		t.Fatal(err)
	}
	if r.Pos() != 8 || r.Remaining() != 8 {
		t.Errorf("pos=%d remaining=%d", r.Pos(), r.Remaining())
	}
	if err := r.Seek(17); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("Seek(17) err = %v, want ErrOutOfBounds", err)
	}
	if err := r.Seek(-1); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("Seek(-1) err = %v, want ErrOutOfBounds", err)
	}
}

func TestReadPastEnd(t *testing.T) {
	var b Builder
	b.AppendUint(3, 2)
	r := NewReader(b.String())
	if _, err := r.ReadUint(3); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("ReadUint past end err = %v, want ErrOutOfBounds", err)
	}
}

func TestWidthFor(t *testing.T) {
	tests := []struct {
		n    uint64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 20, 20}, {1<<20 + 1, 21}}
	for _, tc := range tests {
		if got := WidthFor(tc.n); got != tc.want {
			t.Errorf("WidthFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestEqual(t *testing.T) {
	var a, b Builder
	a.AppendUint(5, 3)
	b.AppendUint(5, 3)
	if !a.String().Equal(b.String()) {
		t.Error("identical strings not Equal")
	}
	b.AppendBit(true)
	if a.String().Equal(b.String()) {
		t.Error("different-length strings Equal")
	}
}

func TestBuilderReset(t *testing.T) {
	var b Builder
	b.AppendUint(42, 16)
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.AppendUint(7, 3)
	r := NewReader(b.String())
	v, err := r.ReadUint(3)
	if err != nil || v != 7 {
		t.Fatalf("after reset read %d, %v", v, err)
	}
}

// Property: any sequence of (value,width) appends reads back exactly.
func TestQuickUintRoundTrip(t *testing.T) {
	f := func(vals []uint64, widthSeed uint8) bool {
		rng := rand.New(rand.NewSource(int64(widthSeed)))
		widths := make([]int, len(vals))
		var b Builder
		for i, v := range vals {
			w := rng.Intn(64) + 1
			widths[i] = w
			b.AppendUint(v, w)
		}
		r := NewReader(b.String())
		for i, v := range vals {
			w := widths[i]
			want := v
			if w < 64 {
				want &= (1 << uint(w)) - 1
			}
			got, err := r.ReadUint(w)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: gamma and delta codes round-trip for arbitrary nonzero values.
func TestQuickGammaDeltaRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		var b Builder
		for _, v := range vals {
			b.AppendGamma0(v)
			b.AppendDelta0(v)
		}
		r := NewReader(b.String())
		for _, v := range vals {
			g, err := r.ReadGamma0()
			if err != nil || g != v {
				return false
			}
			d, err := r.ReadDelta0()
			if err != nil || d != v {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: AppendString concatenation preserves content at any alignment.
func TestQuickAppendString(t *testing.T) {
	f := func(prefixLen uint8, payload []byte) bool {
		var inner Builder
		for _, by := range payload {
			inner.AppendUint(uint64(by), 8)
		}
		in := inner.String()
		var outer Builder
		p := int(prefixLen % 9)
		for i := 0; i < p; i++ {
			outer.AppendBit(i%2 == 0)
		}
		outer.AppendString(in)
		r := NewReader(outer.String())
		if err := r.Seek(p); err != nil {
			return false
		}
		for _, by := range payload {
			v, err := r.ReadUint(8)
			if err != nil || v != uint64(by) {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringRender(t *testing.T) {
	var short Builder
	for _, bit := range []bool{true, false, true} {
		short.AppendBit(bit)
	}
	if s := short.String(); s.String() != "101" {
		t.Errorf("String() = %q, want 101", s.String())
	}
	var b Builder
	for i := 0; i < 200; i++ {
		b.AppendBit(true)
	}
	if got := b.String().String(); len(got) < 128 {
		t.Errorf("long render too short: %q", got)
	}
}

// TestPeek64AllPaths cross-checks ReadUint against bit-by-bit assembly at
// every offset/width combination around the fast-path, spill, and tail
// boundaries of the word-wise reader.
func TestPeek64AllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var b Builder
	const totalBits = 200 // 25 bytes: offsets near the end exercise the tail path
	for i := 0; i < totalBits; i++ {
		b.AppendBit(rng.Intn(2) == 1)
	}
	s := b.String()
	for off := 0; off < totalBits; off++ {
		for _, w := range []int{1, 7, 8, 9, 31, 32, 33, 56, 57, 58, 63, 64} {
			if off+w > totalBits {
				continue
			}
			r := NewReader(s)
			if err := r.Seek(off); err != nil {
				t.Fatal(err)
			}
			got, err := r.ReadUint(w)
			if err != nil {
				t.Fatalf("off=%d w=%d: %v", off, w, err)
			}
			var want uint64
			for k := 0; k < w; k++ {
				bit, err := s.Bit(off + k)
				if err != nil {
					t.Fatal(err)
				}
				want <<= 1
				if bit {
					want |= 1
				}
			}
			if got != want {
				t.Fatalf("off=%d w=%d: got %#x want %#x", off, w, got, want)
			}
		}
	}
}

func BenchmarkReadUint17(b *testing.B) {
	var bl Builder
	for i := 0; i < 10000; i++ {
		bl.AppendUint(uint64(i), 17)
	}
	s := bl.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(s)
		for r.Remaining() >= 17 {
			if _, err := r.ReadUint(17); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestPeekUintMatchesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var b Builder
	for i := 0; i < 500; i++ {
		b.AppendUint(rng.Uint64(), 1+rng.Intn(64))
	}
	s := b.String()
	r := NewReader(s)
	for trial := 0; trial < 5000; trial++ {
		w := rng.Intn(65)
		if w > s.Len() {
			w = s.Len()
		}
		i := rng.Intn(s.Len() - w + 1)
		if err := r.Seek(i); err != nil {
			t.Fatal(err)
		}
		want, err := r.ReadUint(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.PeekUint(i, w)
		if err != nil {
			t.Fatalf("PeekUint(%d,%d): %v", i, w, err)
		}
		if got != want {
			t.Fatalf("PeekUint(%d,%d) = %#x, Reader = %#x", i, w, got, want)
		}
		if m := s.MustPeekUint(i, w); m != want {
			t.Fatalf("MustPeekUint(%d,%d) = %#x, Reader = %#x", i, w, m, want)
		}
	}
}

func TestPeekUintBounds(t *testing.T) {
	var b Builder
	b.AppendUint(0xAB, 8)
	s := b.String()
	for _, c := range []struct{ i, w int }{{-1, 4}, {5, 4}, {0, 9}, {0, 65}, {8, 1}} {
		if _, err := s.PeekUint(c.i, c.w); err == nil {
			t.Errorf("PeekUint(%d,%d) succeeded, want error", c.i, c.w)
		}
	}
	if v, err := s.PeekUint(8, 0); err != nil || v != 0 {
		t.Errorf("PeekUint(8,0) = %d,%v, want 0,nil", v, err)
	}
}

func TestWrapViewsAndMasksPadding(t *testing.T) {
	// 13 bits over 2 bytes; the low 3 bits of the second byte are padding
	// and must be zeroed in place by Wrap.
	data := []byte{0b10110100, 0b11111111}
	s, err := Wrap(data, 13)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 13 {
		t.Fatalf("Len = %d, want 13", s.Len())
	}
	if data[1] != 0b11111000 {
		t.Fatalf("padding not masked: %#08b", data[1])
	}
	var b Builder
	b.AppendUint(0b1011010011111, 13)
	if !s.Equal(b.String()) {
		t.Fatalf("wrapped = %v, want %v", s, b.String())
	}
	// Views share the underlying bytes: no copy.
	if &data[0] != &s.Bytes()[0] {
		t.Fatal("Wrap copied the data")
	}
	// Length mismatches are rejected.
	if _, err := Wrap(data, 17); err == nil {
		t.Error("Wrap accepted 2 bytes for 17 bits")
	}
	if _, err := Wrap(data, -1); err == nil {
		t.Error("Wrap accepted negative length")
	}
	if empty, err := Wrap(nil, 0); err != nil || empty.Len() != 0 {
		t.Errorf("Wrap(nil,0) = %v,%v", empty, err)
	}
}

func TestVectorReset(t *testing.T) {
	v := NewVector(130)
	for _, i := range []int{0, 63, 64, 129} {
		v.Set(i)
	}
	v.BuildRank()
	if v.Count() != 4 {
		t.Fatalf("Count = %d, want 4", v.Count())
	}
	v.Reset()
	if v.Count() != 0 || v.Len() != 130 {
		t.Fatalf("after Reset: count=%d len=%d", v.Count(), v.Len())
	}
	if v.Rank(130) != 0 {
		t.Fatalf("Rank after Reset = %d, want 0", v.Rank(130))
	}
	v.Set(7)
	if !v.Get(7) || v.Count() != 1 {
		t.Fatal("vector unusable after Reset")
	}
}
