package mem

import (
	"fmt"
	"math/bits"
)

// VPN is a virtual page number: a virtual address divided by the page size.
// The same type serves every translation layer (guest-virtual, guest-
// physical, host-virtual), because each layer is just a sparse mapping from
// page numbers to the next layer down.
type VPN uint64

// HugeAlign rounds vpn down to the HugePages boundary that would head a huge
// mapping covering it.
func HugeAlign(vpn VPN) VPN { return vpn &^ (HugePages - 1) }

// PTE is a page-table entry. A PTE exists in a PageTable only when the page
// is present (mapped to a frame) or swapped out (content lives in a swap
// slot); unmapped pages simply have no entry.
type PTE struct {
	// Fields are ordered widest first so an entry packs into 24 bytes; a
	// page-table leaf holds HugePages of them.
	Frame FrameID
	// SwapSlot identifies the swap page of a Swapped entry.
	SwapSlot uint32
	// LastUse is a virtual timestamp (simclock microseconds) of the most
	// recent access, maintained by the hypervisor for LRU eviction.
	LastUse  int64
	Writable bool
	// COW marks a write-protected shared mapping: the next write must
	// allocate a private copy. Both KSM merging and fork-style sharing set
	// it.
	COW bool
	// Swapped marks an entry whose content has been written to swap;
	// Frame is NilFrame and SwapSlot identifies the swap page.
	Swapped bool
	// Huge marks a transparent-huge-page mapping: one stored entry at a
	// HugePages-aligned VPN covers the whole aligned run, backed by a
	// contiguous frame block. Lookup synthesizes the middle entries, so only
	// the head lives in the table.
	Huge bool
	// Accessed is the referenced bit of the second-chance (clock)
	// replacement policy: set on every touch, cleared when the clock hand
	// passes.
	Accessed bool
}

// PageTable is a sparse mapping from virtual page numbers to PTEs, stored as
// a three-level radix table: a root slice indexed by vpn>>18, mid nodes of
// 512 leaf pointers, and leaves that each cover exactly one HugePages-aligned
// run — its PTEs, an occupancy bitmap, and the run's fine-grained huge-page
// state (hugeAux) side by side. Lookup is three array indexes and a bit test,
// with no hashing, and never writes, so concurrent readers are safe. Walks
// visit the leaves in address order, so SortedVPNs and RangeSorted need no
// sort. A leaf is freed when its last entry goes (and its mid node when its
// last leaf goes), so tables that see repeated teardown keep no dead nodes.
//
// Huge mappings store a single entry at the aligned head VPN — slot 0 of its
// leaf — with Huge set; lookups of the other HugePages-1 page numbers in the
// run synthesize their PTE from the head (Frame = head frame + offset). Base
// entries may not be installed inside a huge run — split it first, either
// wholesale (SplitHuge) or per-subpage (SplitHugeSubpages, the FHPM
// carve-out path).
type PageTable struct {
	root []*ptMid
	// n counts stored entries (Len).
	n int
	// present counts resident (non-swapped) entries, maintained on
	// Set/Delete so PresentCount is O(1) for telemetry gauges. A huge entry
	// counts as HugePages resident pages minus the carved subpages that left
	// the run (their own base entries carry the count instead — see
	// SplitHugeSubpages for the bookkeeping contract).
	present int
	// hugeHeads counts huge entries.
	hugeHeads int
}

const (
	// ptMidShift is the VPN shift of a leaf index: a leaf covers one
	// HugePages-aligned run.
	ptMidShift = 9
	// ptRootShift is the VPN shift of a root index: a mid node covers
	// ptFanout leaves.
	ptRootShift = ptMidShift + 9
	ptFanout    = 1 << (ptRootShift - ptMidShift)
)

type ptMid struct {
	leaves [ptFanout]*ptLeaf
	n      int // non-nil leaves
}

// ptLeaf is one HugePages-aligned run of the table.
type ptLeaf struct {
	ptes [HugePages]PTE
	used [HugePages / 64]uint64 // bit i set: ptes[i] is stored
	n    int                    // stored entries
	// aux holds the run's per-subpage state (carve-out bitmap,
	// dirty-ring-fed heat). Allocated lazily; non-nil only while slot 0 is a
	// huge head.
	aux *hugeAux
}

func (l *ptLeaf) has(off VPN) bool { return l.used[off/64]&(1<<(off%64)) != 0 }

// huge reports whether the leaf's run is mapped by a huge head.
func (l *ptLeaf) huge() bool { return l.used[0]&1 != 0 && l.ptes[0].Huge }

// covers reports whether the huge head of the leaf's run (if any) maps off:
// carved subpages are not covered.
func (l *ptLeaf) covers(off VPN) bool {
	return l.huge() && (off == 0 || l.aux == nil || !l.aux.isCarved(off))
}

// store writes e into slot off, keeping the entry counts.
func (pt *PageTable) store(l *ptLeaf, off VPN, e PTE) {
	if !l.has(off) {
		l.used[off/64] |= 1 << (off % 64)
		l.n++
		pt.n++
	}
	l.ptes[off] = e
}

// clear empties slot off, keeping the entry counts; the caller frees the
// leaf once it is done with it (pt.release).
func (pt *PageTable) clear(l *ptLeaf, off VPN) {
	l.used[off/64] &^= 1 << (off % 64)
	l.ptes[off] = PTE{}
	l.n--
	pt.n--
}

// leaf returns the leaf covering vpn, or nil.
func (pt *PageTable) leaf(vpn VPN) *ptLeaf {
	r := uint64(vpn >> ptRootShift)
	if r >= uint64(len(pt.root)) {
		return nil
	}
	m := pt.root[r]
	if m == nil {
		return nil
	}
	return m.leaves[(vpn>>ptMidShift)%ptFanout]
}

// leafFor returns the leaf covering vpn, allocating it (and its mid node)
// if needed.
func (pt *PageTable) leafFor(vpn VPN) *ptLeaf {
	r := int(vpn >> ptRootShift)
	if r >= len(pt.root) {
		pt.root = append(pt.root, make([]*ptMid, r+1-len(pt.root))...)
	}
	m := pt.root[r]
	if m == nil {
		m = &ptMid{}
		pt.root[r] = m
	}
	i := (vpn >> ptMidShift) % ptFanout
	l := m.leaves[i]
	if l == nil {
		l = &ptLeaf{}
		m.leaves[i] = l
		m.n++
	}
	return l
}

// release frees the leaf covering vpn if it holds nothing, and then its mid
// node if that holds no leaves.
func (pt *PageTable) release(vpn VPN) {
	r := vpn >> ptRootShift
	m := pt.root[r]
	i := (vpn >> ptMidShift) % ptFanout
	if l := m.leaves[i]; l.n > 0 || l.aux != nil {
		return
	}
	m.leaves[i] = nil
	if m.n--; m.n == 0 {
		pt.root[r] = nil
	}
}

// hugeAux is the fine-grained state of one huge entry: which subpages have
// been carved out of the run (they own real base PTEs, the head no longer
// covers them) and the dirty-ring-fed per-subpage heat counters the FHPM
// daemon uses for its demote/promote decisions.
type hugeAux struct {
	// carved is a HugePages-wide bitmap; bit i set means head+i is excluded
	// from the huge run. Offset 0 is never carved: the head subpage anchors
	// the huge entry itself (the compound-page head, in Linux terms).
	carved  [HugePages / 64]uint64
	ncarved int
	// heat counts dirty-log events per subpage since the last decay,
	// saturating. The daemon halves them each visit, so the effective
	// signal is an EWMA of the write rate.
	heat [HugePages]uint16
	// age counts decay passes since the aux was created; demotion waits for
	// age >= 2 so a freshly collapsed block gets a chance to show heat.
	age uint8
	// quiet counts consecutive decay passes that began with zero total
	// heat; re-promotion waits for quiet >= 2 (the block has quiesced).
	quiet uint8
}

func (a *hugeAux) isCarved(off VPN) bool {
	return a.carved[off/64]&(1<<(off%64)) != 0
}

func (a *hugeAux) setCarved(off VPN)   { a.carved[off/64] |= 1 << (off % 64) }
func (a *hugeAux) clearCarved(off VPN) { a.carved[off/64] &^= 1 << (off % 64) }

func (l *ptLeaf) ensureAux() *hugeAux {
	if l.aux == nil {
		l.aux = &hugeAux{}
	}
	return l.aux
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

// Len reports the number of stored entries (present + swapped). A huge
// mapping counts as one entry.
func (pt *PageTable) Len() int { return pt.n }

// HugeMappings reports how many huge entries the table holds.
func (pt *PageTable) HugeMappings() int { return pt.hugeHeads }

// hugeLeaf returns the leaf headed at head when head holds a huge entry.
func (pt *PageTable) hugeLeaf(head VPN) *ptLeaf {
	if head%HugePages != 0 {
		return nil
	}
	if l := pt.leaf(head); l != nil && l.huge() {
		return l
	}
	return nil
}

// auxAt returns the fine-grained state of the huge run headed at head, or
// nil.
func (pt *PageTable) auxAt(head VPN) *hugeAux {
	if l := pt.hugeLeaf(head); l != nil {
		return l.aux
	}
	return nil
}

// Lookup fetches the entry for vpn. Page numbers inside a huge run answer
// with a synthesized entry: the head's flags and the frame at the matching
// offset into the backing block, with Huge set so callers can tell. A
// carved subpage answers with its own base entry.
func (pt *PageTable) Lookup(vpn VPN) (PTE, bool) {
	l := pt.leaf(vpn)
	if l == nil {
		return PTE{}, false
	}
	off := vpn % HugePages
	if l.has(off) {
		return l.ptes[off], true
	}
	if l.covers(off) {
		he := l.ptes[0]
		he.Frame += FrameID(off)
		return he, true
	}
	return PTE{}, false
}

// Set installs or replaces the entry for vpn. Installing a base entry inside
// an existing huge run is a bug in the caller (the run must be split first)
// and panics; replacing a huge head with a non-huge entry likewise.
func (pt *PageTable) Set(vpn VPN, e PTE) {
	off := vpn % HugePages
	if e.Huge {
		if off != 0 {
			panic(fmt.Sprintf("mem: huge PTE at unaligned vpn %d", vpn))
		}
	} else if l := pt.leaf(vpn); l != nil && l.covers(off) {
		panic(fmt.Sprintf("mem: base PTE at vpn %d inside huge run headed at %d", vpn, HugeAlign(vpn)))
	}
	l := pt.leafFor(vpn)
	existed, old := l.has(off), l.ptes[off]
	pt.store(l, off, e)
	pt.present += pteResident(e) - residentIf(existed, old)
	pt.hugeHeads += hugeIf(e.Huge) - hugeIf(existed && old.Huge)
}

// Delete removes the entry for vpn, reporting whether it existed. Deleting
// inside a huge run (including its head) panics — split the run first, then
// delete the base entries.
func (pt *PageTable) Delete(vpn VPN) (PTE, bool) {
	l := pt.leaf(vpn)
	if l == nil {
		return PTE{}, false
	}
	off := vpn % HugePages
	if l.covers(off) {
		panic(fmt.Sprintf("mem: delete of vpn %d inside huge run headed at %d", vpn, HugeAlign(vpn)))
	}
	if !l.has(off) {
		return PTE{}, false
	}
	e := l.ptes[off]
	pt.clear(l, off)
	pt.present -= pteResident(e)
	pt.release(vpn)
	return e, true
}

// InstallHuge collapses the run headed at the aligned vpn into one huge
// entry backed by the frame block at base: any stored base entries in the
// run are dropped and replaced by the single huge head.
func (pt *PageTable) InstallHuge(vpn VPN, e PTE) {
	if vpn%HugePages != 0 {
		panic(fmt.Sprintf("mem: InstallHuge at unaligned vpn %d", vpn))
	}
	l := pt.leafFor(vpn)
	if l.huge() {
		panic(fmt.Sprintf("mem: InstallHuge over existing huge run at %d", vpn))
	}
	for w, word := range l.used {
		for ; word != 0; word &= word - 1 {
			off := VPN(w*64 + bits.TrailingZeros64(word))
			pt.present -= pteResident(l.ptes[off])
			pt.clear(l, off)
		}
	}
	e.Huge = true
	pt.store(l, 0, e)
	pt.present += HugePages
	pt.hugeHeads++
	// A fresh collapse starts with clean per-subpage state (no carve-outs,
	// no heat history from a previous life of this address range).
	l.aux = nil
}

// SplitHuge dissolves the huge entry headed at vpn into HugePages base
// entries pointing at consecutive frames, preserving the head's flags. The
// backing frames must already have been released from their block (see
// PhysMem.SplitHugeBlock). Resident count is unchanged.
func (pt *PageTable) SplitHuge(vpn VPN) {
	l := pt.hugeLeaf(vpn)
	if l == nil {
		panic(fmt.Sprintf("mem: SplitHuge at vpn %d: no huge entry", vpn))
	}
	a := l.aux
	e := l.ptes[0]
	e.Huge = false
	// Carved subpages already own base entries (possibly remapped elsewhere
	// by COW or merging) and are left alone.
	l.ptes[0] = e
	pt.hugeHeads--
	for i := VPN(1); i < HugePages; i++ {
		if a != nil && a.isCarved(i) {
			continue
		}
		sub := e
		sub.Frame = e.Frame + FrameID(i)
		pt.store(l, i, sub)
	}
	l.aux = nil
	// present is unchanged: the same pages are resident before and after —
	// the head's contribution is replaced one-for-one by the fanned-out base
	// entries, and carved entries were already counted by themselves.
}

// SplitHugeSubpages carves the given subpages out of the huge run headed at
// head: each one gets a real base PTE pointing at its frame within the
// backing block, while the remainder of the run stays huge. The caller must
// first release the matching frames from the block (PhysMem.ReleaseHugeFrame)
// so they become ordinary refcounted frames. The head subpage (offset 0)
// cannot be carved — it anchors the huge entry.
func (pt *PageTable) SplitHugeSubpages(head VPN, vpns []VPN) {
	l := pt.hugeLeaf(head)
	if l == nil {
		panic(fmt.Sprintf("mem: SplitHugeSubpages at vpn %d: no huge entry", head))
	}
	e := l.ptes[0]
	a := l.ensureAux()
	for _, vpn := range vpns {
		if vpn <= head || vpn >= head+HugePages {
			panic(fmt.Sprintf("mem: SplitHugeSubpages vpn %d outside run headed at %d", vpn, head))
		}
		off := vpn - head
		if a.isCarved(off) {
			panic(fmt.Sprintf("mem: SplitHugeSubpages vpn %d already carved", vpn))
		}
		sub := e
		sub.Huge = false
		sub.Frame = e.Frame + FrameID(off)
		a.setCarved(off)
		a.ncarved++
		// Bookkeeping contract: the head keeps contributing HugePages to
		// present, standing in for resident carved base entries, which are
		// therefore installed without counting. Later mutations of the base
		// entry (swap-out, delete) adjust present normally, keeping the
		// total equal to the true resident page count.
		pt.store(l, off, sub)
	}
	// A fresh carve restarts the quiesce clock: re-promotion must wait for
	// a full quiet window after the most recent demotion.
	a.quiet = 0
}

// UncarveSubpage re-absorbs one carved subpage into the huge run headed at
// head: the base entry (if any) is dropped and the head's coverage of the
// subpage resumes. The caller must have restored the matching frame into the
// backing block first (PhysMem.ReclaimHugeFrame).
func (pt *PageTable) UncarveSubpage(head, vpn VPN) {
	l := pt.hugeLeaf(head)
	if l == nil {
		panic(fmt.Sprintf("mem: UncarveSubpage at vpn %d: no huge entry", head))
	}
	a := l.aux
	if vpn <= head || vpn >= head+HugePages || a == nil || !a.isCarved(vpn-head) {
		panic(fmt.Sprintf("mem: UncarveSubpage vpn %d not carved from run at %d", vpn, head))
	}
	off := vpn - head
	if l.has(off) {
		pt.present -= pteResident(l.ptes[off])
		pt.clear(l, off)
	}
	a.clearCarved(off)
	a.ncarved--
	// The subpage is resident again through the head's coverage.
	pt.present++
}

// CarvedCount reports how many subpages have been carved out of the huge run
// headed at head (0 when the head is not huge or nothing is carved).
func (pt *PageTable) CarvedCount(head VPN) int {
	if a := pt.auxAt(head); a != nil {
		return a.ncarved
	}
	return 0
}

// CarvedAt reports whether vpn is a carved subpage of a live huge run.
func (pt *PageTable) CarvedAt(vpn VPN) bool {
	off := vpn % HugePages
	if off == 0 {
		return false
	}
	l := pt.leaf(vpn)
	return l != nil && l.aux != nil && l.aux.isCarved(off)
}

// CarvedSubpages returns the carved subpage VPNs of the run headed at head,
// ascending.
func (pt *PageTable) CarvedSubpages(head VPN) []VPN {
	a := pt.auxAt(head)
	if a == nil || a.ncarved == 0 {
		return nil
	}
	out := make([]VPN, 0, a.ncarved)
	for i := VPN(1); i < HugePages; i++ {
		if a.isCarved(i) {
			out = append(out, head+i)
		}
	}
	return out
}

// NoteSubpageDirty feeds one dirty-log event into the per-subpage heat
// counter of the huge run covering vpn (carved subpages included — their
// heat still matters for the re-promotion decision). A no-op when vpn is
// not inside a huge run.
func (pt *PageTable) NoteSubpageDirty(vpn VPN) {
	if pt.hugeHeads == 0 {
		return
	}
	l := pt.leaf(vpn)
	if l == nil || !l.huge() {
		return
	}
	a := l.ensureAux()
	if off := vpn % HugePages; a.heat[off] < ^uint16(0) {
		a.heat[off]++
	}
}

// SubpageHeat reports the current heat counter for vpn's slot in the huge
// run covering it (0 when there is no huge run or no recorded writes).
func (pt *PageTable) SubpageHeat(vpn VPN) uint16 {
	if l := pt.leaf(vpn); l != nil && l.aux != nil {
		return l.aux.heat[vpn%HugePages]
	}
	return 0
}

// SubpageHeats returns a snapshot of the per-subpage heat counters for the
// huge entry headed at head.
func (pt *PageTable) SubpageHeats(head VPN) [HugePages]uint16 {
	if a := pt.auxAt(head); a != nil {
		return a.heat
	}
	return [HugePages]uint16{}
}

// DecaySubpageHeat halves every heat counter of the run headed at head (the
// EWMA step) and advances the age/quiet clocks, returning their new values.
// The FHPM daemon calls this once per visit: age gates demotion (give a new
// block time to show heat), quiet gates re-promotion (the block has had no
// writes for that many consecutive visits).
func (pt *PageTable) DecaySubpageHeat(head VPN) (age, quiet int) {
	l := pt.hugeLeaf(head)
	if l == nil {
		panic(fmt.Sprintf("mem: DecaySubpageHeat at vpn %d: no huge entry", head))
	}
	a := l.ensureAux()
	total := 0
	for i := range a.heat {
		total += int(a.heat[i])
		a.heat[i] >>= 1
	}
	if a.age < ^uint8(0) {
		a.age++
	}
	if total == 0 {
		if a.quiet < ^uint8(0) {
			a.quiet++
		}
	} else {
		a.quiet = 0
	}
	return int(a.age), int(a.quiet)
}

// SortedVPNs returns all stored page numbers in ascending order (huge runs
// contribute only their head).
func (pt *PageTable) SortedVPNs() []VPN {
	vpns := make([]VPN, 0, pt.n)
	pt.RangeSorted(func(vpn VPN, _ PTE) bool {
		vpns = append(vpns, vpn)
		return true
	})
	return vpns
}

// RangeSorted calls fn for every stored entry in ascending VPN order,
// stopping early if fn returns false. Huge runs are visited once via their
// head entry. fn may replace the entry it is given; entries it deletes
// further on are not visited.
func (pt *PageTable) RangeSorted(fn func(vpn VPN, e PTE) bool) {
	for r := 0; r < len(pt.root); r++ {
		m := pt.root[r]
		if m == nil {
			continue
		}
		for i := range m.leaves {
			l := m.leaves[i]
			if l == nil {
				continue
			}
			base := VPN(r)<<ptRootShift | VPN(i)<<ptMidShift
			for w := range l.used {
				for word := l.used[w]; word != 0; word &= word - 1 {
					off := VPN(w*64 + bits.TrailingZeros64(word))
					if !l.has(off) {
						continue
					}
					if !fn(base+off, l.ptes[off]) {
						return
					}
				}
			}
		}
	}
}

// PresentCount reports how many pages are resident (not swapped), counting a
// huge mapping as HugePages pages. Maintained on every mutation, so this is
// O(1).
func (pt *PageTable) PresentCount() int { return pt.present }

// pteResident is the number of resident pages an entry contributes.
func pteResident(e PTE) int {
	if e.Swapped {
		return 0
	}
	if e.Huge {
		return HugePages
	}
	return 1
}

func residentIf(existed bool, e PTE) int {
	if !existed {
		return 0
	}
	return pteResident(e)
}

func hugeIf(b bool) int {
	if b {
		return 1
	}
	return 0
}
