// Package mem models host physical memory at page granularity: a pool of
// page frames with reference counting and real byte contents, page tables
// mapping virtual page numbers to frames, and deterministic content
// generators.
//
// Every page in the simulator is backed by real bytes. Components fill pages
// with bytes derived deterministically from logical identity (a class name,
// a file path, a per-process randomization seed), so that two pages end up
// byte-identical exactly when the simulated system would have produced
// identical pages — content identity is emergent, never asserted. That is
// the property the paper's Transparent Page Sharing analysis rests on.
package mem

import "encoding/binary"

// Seed is a 64-bit value that deterministically identifies a piece of
// logical content. Seeds are combined with SplitMix64-style mixing so that
// related identities (same class, different process) produce unrelated byte
// streams.
type Seed uint64

// Mix advances a seed through the SplitMix64 finalizer. It is the core
// primitive behind all deterministic content in the simulator.
func Mix(x Seed) Seed {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return Seed(z ^ (z >> 31))
}

// Combine folds any number of seeds into one. Order matters:
// Combine(a, b) != Combine(b, a) in general.
func Combine(seeds ...Seed) Seed {
	var acc Seed = 0x243f6a8885a308d3 // pi, for want of anything better
	for _, s := range seeds {
		acc = Mix(acc ^ s)
	}
	return acc
}

// HashString hashes a string into a Seed using FNV-1a.
func HashString(s string) Seed {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return Seed(h)
}

// Fill writes a deterministic byte stream derived from seed into dst. The
// stream is a xorshift64* generator stored as little-endian 64-bit words
// (the tail of a length that is not a multiple of 8 takes the low bytes of
// one more word); the same (seed, len) always produces the same bytes, and
// different seeds produce streams that share no long common runs, so
// accidental page-content collisions do not happen.
func Fill(dst []byte, seed Seed) {
	s := xorshiftStart(seed)
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		s = xorshiftNext(s)
		binary.LittleEndian.PutUint64(dst[i:], s*xorshiftMul)
	}
	if i < len(dst) {
		v := xorshiftNext(s) * xorshiftMul
		for ; i < len(dst); i++ {
			dst[i] = byte(v)
			v >>= 8
		}
	}
}

// xorshiftMul is the xorshift64* output multiplier.
const xorshiftMul = 0x2545f4914f6cdd1d

// xorshiftStart derives the generator state for seed; zero is the one state
// xorshift cannot leave, so it is replaced.
func xorshiftStart(seed Seed) uint64 {
	if s := uint64(Mix(seed)); s != 0 {
		return s
	}
	return 0x9e3779b97f4a7c15
}

func xorshiftNext(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// FillBytes allocates and fills a fresh deterministic buffer.
func FillBytes(n int, seed Seed) []byte {
	b := make([]byte, n)
	Fill(b, seed)
	return b
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ChecksumBytes computes the page checksum of a byte slice: FNV-1a folding
// one little-endian 64-bit word per step (the tail of a length that is not a
// multiple of 8 folds byte by byte), finished by the Mix finalizer. KSM uses
// it as its volatility gate — a page whose checksum changed between scan
// passes is considered too volatile to merge — and as the shard key.
//
// The finalizer matters: word-wise FNV leaves the low bits of the sum
// depending only on the low bits of each word, and the KSM shard index
// (sum % N) reads exactly those bits.
func ChecksumBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	i := 0
	for ; i+8 <= len(b); i += 8 {
		h ^= binary.LittleEndian.Uint64(b[i:])
		h *= fnvPrime64
	}
	for ; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return uint64(Mix(Seed(h)))
}

// ChecksumSeed computes ChecksumBytes(FillBytes(n, seed)) without
// materializing the buffer: each generator word is folded straight into the
// hash. The content store checksums seeded (never-read) pages this way, so
// the volatility gate costs no page-sized memory traffic for them.
func ChecksumSeed(seed Seed, n int) uint64 {
	s := xorshiftStart(seed)
	h := uint64(fnvOffset64)
	i := 0
	for ; i+8 <= n; i += 8 {
		s = xorshiftNext(s)
		h ^= s * xorshiftMul
		h *= fnvPrime64
	}
	if i < n {
		v := xorshiftNext(s) * xorshiftMul
		for ; i < n; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	return uint64(Mix(Seed(h)))
}
