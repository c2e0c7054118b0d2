// Package powervm models a system-VM hypervisor in the style of PowerVM
// with Active Memory Sharing (paper §5.B and Fig. 1(a)): the hypervisor sits
// directly on the hardware and translates guest physical to host physical
// with a single table per LPAR — there is no VM process layer, so the
// three-layer walk of the KVM tool does not apply. Matching the paper,
// monitoring is totals-only: the authors note their tool "cannot obtain a
// breakdown of the physical memory usage at the same level of detail in AIX
// as in Linux", and Fig. 6 compares total physical usage before and after
// the hypervisor finishes sharing pages.
package powervm

import (
	"fmt"

	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/simclock"
)

// Config describes the POWER machine (Table I: BladeCenter PS701, 128 GB).
type Config struct {
	Name     string
	RAMBytes int64
	PageSize int
}

// Machine is the physical POWER host.
type Machine struct {
	cfg   Config
	clock *simclock.Clock
	phys  *mem.PhysMem
	lpars []*LPAR

	// checksums is the scanner's volatility gate: a page merges only after
	// two consecutive passes observe the same content, like KSM's checksum
	// check. Keyed by (LPAR id, guest page).
	checksums map[lparPage]uint64

	stats Stats
}

// lparPage identifies one guest page of one partition.
type lparPage struct {
	lpar int
	vpn  mem.VPN
}

// Stats counts hypervisor sharing activity.
type Stats struct {
	PassesRun     uint64
	PagesMerged   uint64
	COWBreaks     uint64
	ChecksumSkips uint64
	SharedFrames  int
}

// New boots the POWER machine.
func New(cfg Config, clock *simclock.Clock) *Machine {
	if cfg.PageSize == 0 {
		cfg.PageSize = mem.DefaultPageSize
	}
	return &Machine{
		cfg:       cfg,
		clock:     clock,
		phys:      mem.NewPhysMem(cfg.RAMBytes, cfg.PageSize),
		checksums: make(map[lparPage]uint64),
	}
}

// Phys exposes the physical memory pool.
func (m *Machine) Phys() *mem.PhysMem { return m.phys }

// LPARs lists the partitions in creation order.
func (m *Machine) LPARs() []*LPAR { return m.lpars }

// Stats returns hypervisor counters.
func (m *Machine) Stats() Stats { return m.stats }

// PhysicalInUse reports total host physical memory in use — the quantity
// PowerVM's monitoring feature reports and Fig. 6 plots.
func (m *Machine) PhysicalInUse() int64 { return m.phys.BytesInUse() }

// LPARConfig describes one logical partition.
type LPARConfig struct {
	Name string
	// GuestMemBytes is the partition's memory (Table II: 3.5 GB).
	GuestMemBytes int64
	// Dedicated opts the LPAR out of Active Memory Sharing: its pages are
	// never merged (PowerVM shares identical pages "unless the guest VMs
	// are configured to allocate dedicated physical memory").
	Dedicated bool
	Seed      mem.Seed
}

// LPAR is a partition: guest physical pages map straight to host frames.
// It implements guestos.Machine, so the same AIX-like guest OS and JVM run
// on it unchanged.
type LPAR struct {
	machine *Machine
	id      int
	cfg     LPARConfig

	guestPages int
	pt         *mem.PageTable // gpfn -> host frame (single translation step)
}

// NewLPAR creates a partition.
func (m *Machine) NewLPAR(cfg LPARConfig) *LPAR {
	if cfg.GuestMemBytes < int64(m.cfg.PageSize) {
		panic(fmt.Sprintf("powervm: LPAR memory %d below page size", cfg.GuestMemBytes))
	}
	lp := &LPAR{
		machine:    m,
		id:         len(m.lpars) + 1,
		cfg:        cfg,
		guestPages: int(cfg.GuestMemBytes / int64(m.cfg.PageSize)),
		pt:         mem.NewPageTable(),
	}
	m.lpars = append(m.lpars, lp)
	return lp
}

// guestos.Machine implementation.

// Name reports the partition label.
func (lp *LPAR) Name() string { return lp.cfg.Name }

// Seed reports the partition's randomization seed.
func (lp *LPAR) Seed() mem.Seed { return lp.cfg.Seed }

// PageSize reports the page size in bytes.
func (lp *LPAR) PageSize() int { return lp.machine.cfg.PageSize }

// GuestPages reports the partition memory size in pages.
func (lp *LPAR) GuestPages() int { return lp.guestPages }

// ID reports the 1-based partition index.
func (lp *LPAR) ID() int { return lp.id }

func (lp *LPAR) checkGPFN(gpfn uint64) {
	if gpfn >= uint64(lp.guestPages) {
		panic(fmt.Sprintf("powervm: gpfn %d outside LPAR memory", gpfn))
	}
}

// ensure demand-pages a partition page, breaking COW on writes.
func (lp *LPAR) ensure(gpfn uint64, write bool) mem.FrameID {
	lp.checkGPFN(gpfn)
	vpn := mem.VPN(gpfn)
	pte, ok := lp.pt.Lookup(vpn)
	if !ok {
		f, err := lp.machine.phys.Alloc()
		if err != nil {
			panic("powervm: machine out of physical memory (the paper's 128 GB host never pages)")
		}
		lp.pt.Set(vpn, mem.PTE{Frame: f, Writable: true})
		return f
	}
	if write && pte.COW {
		old := pte.Frame
		f, err := lp.machine.phys.Alloc()
		if err != nil {
			panic("powervm: machine out of physical memory during COW break")
		}
		lp.machine.phys.CopyFrame(f, old)
		lp.machine.phys.DecRef(old)
		lp.pt.Set(vpn, mem.PTE{Frame: f, Writable: true})
		lp.machine.stats.COWBreaks++
		return f
	}
	return pte.Frame
}

// TouchGuestPage simulates an access.
func (lp *LPAR) TouchGuestPage(gpfn uint64, write bool) { lp.ensure(gpfn, write) }

// ReadGuestPage returns the page's bytes.
func (lp *LPAR) ReadGuestPage(gpfn uint64) []byte {
	return lp.machine.phys.Bytes(lp.ensure(gpfn, false))
}

// WriteGuestPage writes into the page.
func (lp *LPAR) WriteGuestPage(gpfn uint64, off int, data []byte) {
	lp.machine.phys.Write(lp.ensure(gpfn, true), off, data)
}

// FillGuestPage overwrites the page with seed-derived content.
func (lp *LPAR) FillGuestPage(gpfn uint64, seed mem.Seed) {
	lp.machine.phys.FillFrame(lp.ensure(gpfn, true), seed)
}

// ZeroGuestPage clears the page.
func (lp *LPAR) ZeroGuestPage(gpfn uint64) {
	lp.machine.phys.ZeroFrame(lp.ensure(gpfn, true))
}

// ReleaseGuestPage returns the page to the hypervisor.
func (lp *LPAR) ReleaseGuestPage(gpfn uint64) {
	lp.checkGPFN(gpfn)
	if pte, ok := lp.pt.Delete(mem.VPN(gpfn)); ok {
		lp.machine.phys.DecRef(pte.Frame)
	}
}

// SharePass runs one full Active-Memory-Sharing deduplication pass over all
// non-dedicated LPARs: identical resident pages collapse onto one
// copy-on-write frame. PowerVM's scanner converges in the background; the
// paper measures "after finishing page sharing", which a few passes model.
func (m *Machine) SharePass() {
	m.stats.PassesRun++
	byContent := make(map[uint64][]mem.FrameID) // checksum -> canonical frames
	for _, lp := range m.lpars {
		if lp.cfg.Dedicated {
			continue
		}
		lp.pt.RangeSorted(func(vpn mem.VPN, pte mem.PTE) bool {
			f := pte.Frame
			sum := m.phys.Checksum(f)
			if m.phys.IsKSM(f) {
				// Already a shared frame: make it findable for others.
				byContent[sum] = appendIfMissing(byContent[sum], f)
				return true
			}
			// Volatility gate: only pages whose content survived a full
			// pass unchanged are merge candidates.
			key := lparPage{lpar: lp.id, vpn: vpn}
			last, seen := m.checksums[key]
			m.checksums[key] = sum
			if !seen || last != sum {
				m.stats.ChecksumSkips++
				return true
			}
			for _, cand := range byContent[sum] {
				if cand != f && m.phys.Equal(cand, f) {
					m.phys.IncRef(cand)
					m.phys.DecRef(f)
					lp.pt.Set(vpn, mem.PTE{Frame: cand, Writable: pte.Writable, COW: true})
					if !m.phys.IsKSM(cand) {
						// First merge: write-protect the canonical holder too.
						m.phys.SetKSM(cand, true)
						m.protectHolders(cand)
					}
					m.stats.PagesMerged++
					return true
				}
			}
			byContent[sum] = append(byContent[sum], f)
			return true
		})
	}
	m.stats.SharedFrames = m.countShared()
}

// protectHolders write-protects every existing mapping of a frame that just
// became shared.
func (m *Machine) protectHolders(f mem.FrameID) {
	for _, lp := range m.lpars {
		lp.pt.RangeSorted(func(vpn mem.VPN, pte mem.PTE) bool {
			if pte.Frame == f && !pte.COW {
				pte.COW = true
				lp.pt.Set(vpn, pte)
			}
			return true
		})
	}
}

func (m *Machine) countShared() int {
	n := 0
	seen := map[mem.FrameID]bool{}
	for _, lp := range m.lpars {
		lp.pt.RangeSorted(func(_ mem.VPN, pte mem.PTE) bool {
			if m.phys.IsKSM(pte.Frame) && !seen[pte.Frame] {
				seen[pte.Frame] = true
				n++
			}
			return true
		})
	}
	return n
}

func appendIfMissing(s []mem.FrameID, f mem.FrameID) []mem.FrameID {
	for _, x := range s {
		if x == f {
			return s
		}
	}
	return append(s, f)
}

// Interface conformance check.
var _ guestos.Machine = (*LPAR)(nil)
