package bitstr

import (
	"math/rand"
	"testing"
)

func TestVectorSetGetClear(t *testing.T) {
	v := NewVector(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Count() != len(idx) {
		t.Errorf("Count = %d, want %d", v.Count(), len(idx))
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
	if v.Count() != len(idx)-1 {
		t.Errorf("Count after clear = %d", v.Count())
	}
}

func TestVectorZeroLength(t *testing.T) {
	v := NewVector(0)
	if v.Len() != 0 || v.Count() != 0 {
		t.Errorf("zero vector: len=%d count=%d", v.Len(), v.Count())
	}
	v2 := NewVector(-5)
	if v2.Len() != 0 {
		t.Errorf("negative length clamped to %d", v2.Len())
	}
}

func TestVectorAppendRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 128, 200} {
		v := NewVector(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				v.Set(i)
			}
		}
		var b Builder
		b.AppendBit(true) // misalign on purpose
		off := b.Len()
		v.Append(&b)
		s := b.String()
		if s.Len() != off+n {
			t.Fatalf("n=%d: appended %d bits", n, s.Len()-off)
		}
		for i := 0; i < n; i++ {
			if got, _ := s.Bit(off + i); got != v.Get(i) {
				t.Fatalf("n=%d bit %d mismatch", n, i)
			}
		}
	}
}
