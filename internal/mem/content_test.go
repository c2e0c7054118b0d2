package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fillByteReference is the byte-at-a-time form of Fill: each xorshift64*
// word is stored low byte first, and a short tail takes the low bytes of one
// more word. Fill must produce exactly these bytes, since every simulated
// page's content derives from them.
func fillByteReference(dst []byte, seed Seed) {
	s := uint64(Mix(seed))
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	for i := 0; i < len(dst); {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		v := s * 0x2545f4914f6cdd1d
		for k := 0; k < 8 && i < len(dst); k++ {
			dst[i] = byte(v >> (8 * k))
			i++
		}
	}
}

func TestFillMatchesByteReference(t *testing.T) {
	sizes := []int{4095, 4096, 4100}
	for n := 0; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for s := uint64(0); s < 16; s++ {
			seed := Seed(s * 0x9e3779b97f4a7c15)
			want := make([]byte, n)
			fillByteReference(want, seed)
			if got := FillBytes(n, seed); !bytes.Equal(got, want) {
				t.Fatalf("seed %#x n=%d: Fill differs from the byte-wise reference", uint64(seed), n)
			}
		}
	}
}

// TestChecksumLowBitsBalanced guards the checksum's finalizer: the KSM shard
// index (sum % N) reads the low bits of the sum, so they must spread evenly
// both over seeded pages and over pages that differ only in the high bytes
// of a word — for which unfinalized word-wise FNV would put every page in
// the same bucket.
func TestChecksumLowBitsBalanced(t *testing.T) {
	const pages, buckets = 4096, 4
	cases := []struct {
		name string
		page func(i int) []byte
	}{
		{"seeded", func(i int) []byte { return FillBytes(DefaultPageSize, Seed(i)) }},
		{"high-bytes", func(i int) []byte {
			p := make([]byte, DefaultPageSize)
			binary.LittleEndian.PutUint32(p[4:], uint32(i))
			return p
		}},
	}
	for _, c := range cases {
		var count [buckets]int
		for i := 0; i < pages; i++ {
			count[ChecksumBytes(c.page(i))%buckets]++
		}
		for b, n := range count {
			if want := pages / buckets; n < want*9/10 || n > want*11/10 {
				t.Errorf("%s: bucket %d holds %d of %d pages, want %d ± 10%%", c.name, b, n, pages, want)
			}
		}
	}
}
