package mem

import "testing"

// Microbenchmarks for the three kernels on the KSM scan path: the page
// checksum (volatility gate and shard key), the seeded content fill, and the
// page-table walk. Run with
//
//	go test -run xxx -bench 'Checksum|Fill|PageTableLookup' ./internal/mem

const benchPageSize = 4096

var benchSink uint64

func BenchmarkChecksumBytes(b *testing.B) {
	page := FillBytes(benchPageSize, 1)
	b.SetBytes(benchPageSize)
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum ^= ChecksumBytes(page)
	}
	benchSink = sum
}

func BenchmarkChecksumSeed(b *testing.B) {
	b.SetBytes(benchPageSize)
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum ^= ChecksumSeed(Seed(i), benchPageSize)
	}
	benchSink = sum
}

func BenchmarkFill(b *testing.B) {
	page := make([]byte, benchPageSize)
	b.SetBytes(benchPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(page, Seed(i))
	}
	benchSink = uint64(page[0])
}

// BenchmarkPageTableLookup walks a dense guest memslot (base pages at a VM's
// memslot spacing, with a few huge runs mixed in) either in address order,
// as the linear KSM scan does, or with a large prime stride that touches a
// different leaf on almost every lookup.
func BenchmarkPageTableLookup(b *testing.B) {
	const (
		base  = VPN(3 << 24)
		pages = 1 << 16
	)
	pt := NewPageTable()
	for i := VPN(0); i < pages; i++ {
		if i%(8*HugePages) == 0 {
			pt.InstallHuge(base+i, PTE{Frame: FrameID(i)})
		}
		if _, ok := pt.Lookup(base + i); !ok {
			pt.Set(base+i, PTE{Frame: FrameID(i)})
		}
	}
	for _, bc := range []struct {
		name   string
		stride VPN
	}{{"sequential", 1}, {"strided", 4099}} {
		b.Run(bc.name, func(b *testing.B) {
			var frames uint64
			vpn := VPN(0)
			for i := 0; i < b.N; i++ {
				e, _ := pt.Lookup(base + vpn)
				frames += uint64(e.Frame)
				vpn = (vpn + bc.stride) % pages
			}
			benchSink = frames
		})
	}
}
