package mem

import (
	"math/bits"
	"math/rand"
	"testing"
)

// This file is the page-table differential test: a naive map-backed model
// (one map of stored entries, one map of per-run carve/heat state keyed by
// head) runs the same operation stream as the radix PageTable, and every
// observable must agree after every operation. Operations whose
// precondition fails in the model must panic in the table too.

type ptModelAux struct {
	carved     map[VPN]bool
	heat       [HugePages]uint16
	age, quiet int
}

type ptModel struct {
	entries map[VPN]PTE
	aux     map[VPN]*ptModelAux
}

func newPTModel() *ptModel {
	return &ptModel{entries: map[VPN]PTE{}, aux: map[VPN]*ptModelAux{}}
}

// huge reports whether head holds a huge entry.
func (m *ptModel) huge(head VPN) bool {
	e, ok := m.entries[head]
	return ok && e.Huge
}

// covered reports whether vpn is mapped through a huge head (not carved).
func (m *ptModel) covered(vpn VPN) bool {
	head := HugeAlign(vpn)
	if !m.huge(head) {
		return false
	}
	a := m.aux[head]
	return vpn == head || a == nil || !a.carved[vpn]
}

func (m *ptModel) lookup(vpn VPN) (PTE, bool) {
	if e, ok := m.entries[vpn]; ok {
		return e, true
	}
	if m.covered(vpn) {
		e := m.entries[HugeAlign(vpn)]
		e.Frame += FrameID(vpn - HugeAlign(vpn))
		return e, true
	}
	return PTE{}, false
}

func (m *ptModel) ensureAux(head VPN) *ptModelAux {
	a := m.aux[head]
	if a == nil {
		a = &ptModelAux{carved: map[VPN]bool{}}
		m.aux[head] = a
	}
	return a
}

// counts recounts from scratch the resident pages — every resident base
// entry counts one, every huge head its run minus the carved subpages (a
// carved subpage's own base entry carries its count) — and the huge heads.
func (m *ptModel) counts() (present, heads int) {
	for vpn, e := range m.entries {
		switch {
		case e.Huge:
			heads++
			present += HugePages
			if a := m.aux[vpn]; a != nil {
				present -= len(a.carved)
			}
		case !e.Swapped:
			present++
		}
	}
	return present, heads
}

// ptDiffBases place the exercised runs around the radix boundaries: the
// root boundary at 2^18 (mid node edges) and the memslot spacing 1<<24 the
// hypervisor gives each VM process, both straddled by a four-run window.
var ptDiffBases = []VPN{
	0,
	1<<18 - 2*HugePages,
	3<<18 - 2*HugePages,
	1<<24 - 2*HugePages,
	5<<24 - 2*HugePages,
}

const ptDiffSpan = 4 * HugePages

// ptDiff drives one table and one model through a decoded operation stream.
type ptDiff struct {
	t  *testing.T
	pt *PageTable
	m  *ptModel
}

// step decodes one operation from four bytes and applies it to both sides.
func (d *ptDiff) step(op, where, lo, arg byte) {
	t, pt, m := d.t, d.pt, d.m
	base := ptDiffBases[int(where>>4)%len(ptDiffBases)]
	vpn := base + (VPN(where&0xf)<<8|VPN(lo))%ptDiffSpan
	head := HugeAlign(vpn)
	pte := PTE{Frame: FrameID(arg) << 4, Writable: arg&1 != 0, COW: arg&2 != 0, LastUse: int64(arg)}
	if arg&4 != 0 {
		pte = PTE{Frame: NilFrame, Swapped: true, SwapSlot: uint32(arg)}
	}
	switch op % 8 {
	case 0: // Set: a base entry, or a flag update of a huge head
		if m.huge(vpn) {
			e := m.entries[vpn]
			e.COW, e.LastUse = !e.COW, int64(arg)
			pt.Set(vpn, e)
			m.entries[vpn] = e
		} else if m.covered(vpn) {
			mustPanic(t, "Set inside huge run", func() { pt.Set(vpn, pte) })
		} else {
			pt.Set(vpn, pte)
			m.entries[vpn] = pte
		}
	case 1: // Delete
		if m.covered(vpn) {
			mustPanic(t, "Delete inside huge run", func() { pt.Delete(vpn) })
			break
		}
		got, gok := pt.Delete(vpn)
		want, wok := m.entries[vpn]
		delete(m.entries, vpn)
		if got != want || gok != wok {
			t.Fatalf("Delete(%d) = %+v,%v; model %+v,%v", vpn, got, gok, want, wok)
		}
	case 2: // InstallHuge
		e := PTE{Frame: FrameID(head), Writable: true}
		if m.huge(head) {
			mustPanic(t, "InstallHuge over huge run", func() { pt.InstallHuge(head, e) })
			break
		}
		pt.InstallHuge(head, e)
		for i := VPN(0); i < HugePages; i++ {
			delete(m.entries, head+i)
		}
		e.Huge = true
		m.entries[head] = e
		delete(m.aux, head)
	case 3: // SplitHuge
		if !m.huge(head) {
			mustPanic(t, "SplitHuge without huge run", func() { pt.SplitHuge(head) })
			break
		}
		pt.SplitHuge(head)
		e := m.entries[head]
		e.Huge = false
		m.entries[head] = e
		a := m.aux[head]
		for i := VPN(1); i < HugePages; i++ {
			if a == nil || !a.carved[head+i] {
				sub := e
				sub.Frame += FrameID(i)
				m.entries[head+i] = sub
			}
		}
		delete(m.aux, head)
	case 4: // SplitHugeSubpages: up to three fresh subpages
		if !m.huge(head) {
			mustPanic(t, "SplitHugeSubpages without huge run", func() { pt.SplitHugeSubpages(head, []VPN{head + 1}) })
			break
		}
		a := m.ensureAux(head)
		var vpns []VPN
		for k := 0; k < 1+int(arg%3); k++ {
			v := head + 1 + (VPN(lo)+VPN(k)*97+VPN(arg))%(HugePages-1)
			if a.carved[v] || containsVPN(vpns, v) {
				continue
			}
			vpns = append(vpns, v)
		}
		pt.SplitHugeSubpages(head, vpns)
		for _, v := range vpns {
			a.carved[v] = true
			sub := m.entries[head]
			sub.Huge = false
			sub.Frame += FrameID(v - head)
			m.entries[v] = sub
		}
		a.quiet = 0
	case 5: // UncarveSubpage: the carved subpage nearest above vpn
		a := m.aux[head]
		if !m.huge(head) || a == nil || len(a.carved) == 0 {
			mustPanic(t, "UncarveSubpage without carved subpages", func() { pt.UncarveSubpage(head, vpn) })
			break
		}
		var v VPN
		for off := VPN(0); off < HugePages; off++ {
			if c := head + (vpn-head+off)%HugePages; a.carved[c] {
				v = c
				break
			}
		}
		pt.UncarveSubpage(head, v)
		delete(a.carved, v)
		delete(m.entries, v)
	case 6: // NoteSubpageDirty
		pt.NoteSubpageDirty(vpn)
		if m.huge(head) {
			if a := m.ensureAux(head); a.heat[vpn-head] < ^uint16(0) {
				a.heat[vpn-head]++
			}
		}
	case 7: // DecaySubpageHeat
		if !m.huge(head) {
			mustPanic(t, "DecaySubpageHeat without huge run", func() { pt.DecaySubpageHeat(head) })
			break
		}
		a := m.ensureAux(head)
		total := 0
		for i := range a.heat {
			total += int(a.heat[i])
			a.heat[i] >>= 1
		}
		a.age = min(a.age+1, 255)
		if total == 0 {
			a.quiet = min(a.quiet+1, 255)
		} else {
			a.quiet = 0
		}
		if age, quiet := pt.DecaySubpageHeat(head); age != a.age || quiet != a.quiet {
			t.Fatalf("DecaySubpageHeat(%d) = %d,%d; model %d,%d", head, age, quiet, a.age, a.quiet)
		}
	}
	d.verify(vpn)
}

func containsVPN(s []VPN, v VPN) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// verify compares every observable around the touched vpn, and the
// table-wide counters and ordering.
func (d *ptDiff) verify(vpn VPN) {
	t, pt, m := d.t, d.pt, d.m
	t.Helper()
	head := HugeAlign(vpn)
	for _, v := range []VPN{vpn - 1, vpn, vpn + 1, head - 1, head, head + 1, head + HugePages - 1, head + HugePages} {
		got, gok := pt.Lookup(v)
		want, wok := m.lookup(v)
		if got != want || gok != wok {
			t.Fatalf("Lookup(%d) = %+v,%v; model %+v,%v", v, got, gok, want, wok)
		}
		wantCarved := v != HugeAlign(v) && m.huge(HugeAlign(v)) && m.aux[HugeAlign(v)] != nil && m.aux[HugeAlign(v)].carved[v]
		if got := pt.CarvedAt(v); got != wantCarved {
			t.Fatalf("CarvedAt(%d) = %v, model %v", v, got, wantCarved)
		}
	}
	if pt.Len() != len(m.entries) {
		t.Fatalf("Len = %d, model %d", pt.Len(), len(m.entries))
	}
	present, heads := m.counts()
	if pt.PresentCount() != present {
		t.Fatalf("PresentCount = %d, model recount %d", pt.PresentCount(), present)
	}
	if pt.HugeMappings() != heads {
		t.Fatalf("HugeMappings = %d, model %d", pt.HugeMappings(), heads)
	}
	var wantCarved int
	var wantHeat [HugePages]uint16
	if a := m.aux[head]; a != nil && m.huge(head) {
		wantCarved, wantHeat = len(a.carved), a.heat
	}
	if got := pt.CarvedCount(head); got != wantCarved {
		t.Fatalf("CarvedCount(%d) = %d, model %d", head, got, wantCarved)
	}
	if got := len(pt.CarvedSubpages(head)); got != wantCarved {
		t.Fatalf("CarvedSubpages(%d) has %d, model %d", head, got, wantCarved)
	}
	if got := pt.SubpageHeats(head); got != wantHeat {
		t.Fatalf("SubpageHeats(%d) differ from model", head)
	}
	d.checkNodes()
	// Strictly ascending, all in the model, as many as the model holds:
	// exactly the model's keys in order.
	vpns := pt.SortedVPNs()
	if len(vpns) != len(m.entries) {
		t.Fatalf("SortedVPNs has %d entries, model %d", len(vpns), len(m.entries))
	}
	for i, v := range vpns {
		if _, ok := m.entries[v]; !ok || (i > 0 && v <= vpns[i-1]) {
			t.Fatalf("SortedVPNs[%d] = %d: not in the model or out of order", i, v)
		}
	}
}

// checkNodes checks the radix nodes' own bookkeeping: every mid node counts
// its leaves, and every leaf its entries; no node is kept empty.
func (d *ptDiff) checkNodes() {
	t := d.t
	t.Helper()
	for r, mid := range d.pt.root {
		if mid == nil {
			continue
		}
		leaves := 0
		for i, l := range mid.leaves {
			if l == nil {
				continue
			}
			leaves++
			n := 0
			for _, w := range l.used {
				n += bits.OnesCount64(w)
			}
			if n != l.n || (n == 0 && l.aux == nil) {
				t.Fatalf("leaf %d/%d: %d entries counted, %d stored, aux %v", r, i, l.n, n, l.aux != nil)
			}
		}
		if leaves != mid.n || leaves == 0 {
			t.Fatalf("mid node %d: %d leaves counted, %d present", r, mid.n, leaves)
		}
	}
}

// drain splits every huge run and deletes every entry, then checks that the
// table freed all its leaves and mid nodes.
func (d *ptDiff) drain() {
	t, pt := d.t, d.pt
	for _, vpn := range pt.SortedVPNs() {
		if e, _ := pt.Lookup(vpn); e.Huge {
			pt.SplitHuge(vpn)
		}
	}
	for _, vpn := range pt.SortedVPNs() {
		if _, ok := pt.Delete(vpn); !ok {
			t.Fatalf("Delete(%d) of a listed entry failed", vpn)
		}
		d.checkNodes()
	}
	if pt.Len() != 0 || pt.PresentCount() != 0 || pt.HugeMappings() != 0 {
		t.Fatalf("drained table: Len %d, present %d, huge %d", pt.Len(), pt.PresentCount(), pt.HugeMappings())
	}
	for r, mid := range pt.root {
		if mid != nil {
			t.Fatalf("drained table keeps a mid node at root index %d (%d leaves)", r, mid.n)
		}
	}
}

func runPTDiff(t *testing.T, ops []byte) {
	d := &ptDiff{t: t, pt: NewPageTable(), m: newPTModel()}
	for i := 0; i+4 <= len(ops); i += 4 {
		d.step(ops[i], ops[i+1], ops[i+2], ops[i+3])
	}
	d.drain()
}

// ptDiffCorpus returns the seed corpus: random operation streams drawn from
// fixed seeds, so every run replays exactly. Each stream stays near one or
// two bases, and the narrower ones confine their VPNs to a few subpages so
// that carves, re-absorptions and heat pile up on the same runs.
func ptDiffCorpus() [][]byte {
	masks := []struct{ where, lo byte }{
		{0xff, 0xff}, // all five bases, whole window
		{0x1f, 0xff}, // two bases, whole window
		{0x13, 0xff}, // two bases, first two runs
		{0x01, 0x0f}, // one run, two groups of 16 subpages
		{0x00, 0x07}, // one run, 8 subpages
		{0x10, 0x03}, // two runs, 4 subpages each
		{0x10, 0x03}, // the same, mostly dirty-log notes (see below)
	}
	var corpus [][]byte
	for k, mask := range masks {
		r := rand.New(rand.NewSource(int64(k + 1)))
		ops := make([]byte, 4*800)
		r.Read(ops)
		for i := 0; i < len(ops); i += 4 {
			ops[i+1] = ops[i+1]&mask.where | byte(k%len(ptDiffBases))<<4&^mask.where
			ops[i+2] &= mask.lo
			if k == len(masks)-1 && ops[i+3]%8 != 0 {
				ops[i] = 6 // NoteSubpageDirty: heat builds up between decays
			}
		}
		corpus = append(corpus, ops)
	}
	return corpus
}

// TestPageTableDifferential runs the seed corpus of
// FuzzPageTableDifferential deterministically.
func TestPageTableDifferential(t *testing.T) {
	for _, ops := range ptDiffCorpus() {
		runPTDiff(t, ops)
	}
}

// FuzzPageTableDifferential replays fuzzer-chosen operation streams (four
// bytes per operation) against the map model. Streams are capped at
// fuzzMaxOps operations, and the seeds are the corpus streams cut to that
// length, so each execution stays short enough for the fuzzer to explore
// (and minimize) quickly.
func FuzzPageTableDifferential(f *testing.F) {
	const fuzzMaxOps = 256
	for _, ops := range ptDiffCorpus() {
		f.Add(ops[:4*fuzzMaxOps])
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*fuzzMaxOps {
			return
		}
		runPTDiff(t, ops)
	})
}
