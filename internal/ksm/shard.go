// The merge pipeline: the one path every candidate page takes, at every
// shard count and split policy.
//
// The scanner's mutable merge state — the stable treap and the unstable
// index — is split into Config.Shards disjoint shards routed by
// checksum % shards (one shard when unsharded). Because a candidate can only
// ever interact with content of its own checksum (a stable hit or an unstable
// partner is byte-identical, hence checksum-identical), every lookup, insert
// and removal a candidate performs lands in one shard, and workers pinned to
// distinct shards never contend.
//
// A scan chunk is processed in batches through four phases:
//
//  1. collect (serial): the linear cursor walk or the incremental queue pop
//     gathers candidate (vm, vpn) pairs in scan order.
//  2. classify: each candidate resolves its PTE and computes its content
//     checksum; terminal verdicts (not resident, already shared, huge-skip
//     when no split policy is set) and the volatility gate are decided here.
//     No pool, page-table or scanner state is written.
//  3. merge: each shard runs the stable-lookup / unstable-partner pipeline
//     for its candidates in batch order, eagerly mutating only shard-owned
//     structures. Global effects (refcounts, remaps, write-protects, huge
//     splits, KSM flags, stats, gate sightings) are recorded on the
//     candidate.
//     Two per-shard overlays — pendKSM (frames promoted earlier in this
//     batch) and pendRemap (pages remapped earlier in this batch) — reproduce
//     the state a page-at-a-time scan would observe mid-batch; they suffice
//     because every such interaction is same-checksum and therefore
//     same-shard.
//  4. commit (serial, batch order): verdicts are applied in candidate order,
//     so the page-table, refcount and statistics mutation stream is that of
//     a page-at-a-time scan. Frame allocation and free order — which every
//     figure depends on — is therefore independent of both the shard count
//     and the worker interleaving.
//
// A batch fans out — classify striped over goroutines, one merge worker per
// shard with work — only when Shards > 1 and it holds at least
// minParallelBatch pages; fanned-out phases read content through per-worker
// mem.ROViews, which never write pool state. Every other batch runs the same
// phases inline, reading through the pool itself, one candidate at a time:
// each candidate is committed before the next is classified, so an inline
// batch is a run of one-candidate batches.
//
// Under a split policy (Config.SplitHugePages, Config.PartialSplitHuge) a
// huge-mapped candidate is routed to the merge phase, which decides read-only
// whether its subpage has a duplicate and whether the policy can split it;
// commit performs the carve or split and rescans the now base-grained page.
// A base candidate whose unstable partner is huge likewise has commit split
// the partner before promoting it. A whole-block split rewrites the PTEs of
// every subpage in its run, some of which may still be waiting in the same
// chunk, so under either policy batches are one candidate long at every shard
// count. DESIGN.md §5f covers the invariants in detail.
package ksm

import (
	"sync"

	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// minParallelBatch is the smallest batch fanned out to shard workers; below
// it goroutine dispatch costs more than the scan work. A package variable so
// tests can force the pool on small fixtures.
var minParallelBatch = 256

// scanShard owns one checksum-bucket partition of the merge state.
type scanShard struct {
	stable    *stableTreap
	unstable  map[uint64][]unstableEntry
	unstableN int
	// scanned counts candidates routed into this shard's merge pipeline
	// (volatility gate and beyond), once per candidate — per-shard
	// telemetry, identical whether the batch fanned out or ran inline.
	scanned uint64

	// view is the worker's read-only content accessor when a batch fans
	// out; pendKSM and pendRemap are the per-batch overlays described in the
	// package comment, emptied entry by entry as commit applies the merges
	// that wrote them.
	view      *mem.ROView
	pendKSM   map[mem.FrameID]struct{}
	pendRemap map[pageKey]struct{}
}

func newScanShard(pm *mem.PhysMem, idx int) *scanShard {
	return &scanShard{
		stable:    newStableTreap(pm, idx),
		unstable:  make(map[uint64][]unstableEntry),
		view:      pm.NewROView(),
		pendKSM:   make(map[mem.FrameID]struct{}),
		pendRemap: make(map[pageKey]struct{}),
	}
}

// contentReader is the content access the classify and merge phases need:
// the pool itself (*mem.PhysMem) inline, a worker's mem.ROView when the
// batch fans out.
type contentReader interface {
	Checksum(id mem.FrameID) uint64
	Equal(a, b mem.FrameID) bool
	Compare(a, b mem.FrameID) int
}

// shardOf routes a content checksum to its owning shard.
func (k *KSM) shardOf(sum uint64) *scanShard {
	return k.shards[int(sum%uint64(len(k.shards)))]
}

// unstableTotal sums unstable entries across shards (telemetry, compaction
// trigger).
func (k *KSM) unstableTotal() int {
	t := 0
	for _, s := range k.shards {
		t += s.unstableN
	}
	return t
}

// stableSize sums stable-tree nodes across shards.
func (k *KSM) stableSize() int {
	t := 0
	for _, s := range k.shards {
		t += s.stable.size
	}
	return t
}

// stableFramesOrdered returns every stable frame in global content-key order
// — the order the single treap of an unsharded scanner yields — by k-way
// merging the per-shard trees' ordered walks. Prune and unmerge iterate it
// so the frame-free order (which feeds allocation order, which feeds every
// figure) is independent of the shard count. Equal content cannot appear in
// two shards (same bytes ⇒ same checksum ⇒ same shard), so the merge never
// ties.
func (k *KSM) stableFramesOrdered() []mem.FrameID {
	if len(k.shards) == 1 {
		return k.shards[0].stable.frames()
	}
	pm := k.host.Phys()
	var lists [][]mem.FrameID
	total := 0
	for _, s := range k.shards {
		if fr := s.stable.frames(); len(fr) > 0 {
			lists = append(lists, fr)
			total += len(fr)
		}
	}
	out := make([]mem.FrameID, 0, total)
	for len(lists) > 0 {
		best := 0
		for i := 1; i < len(lists); i++ {
			if pm.Compare(lists[i][0], lists[best][0]) < 0 {
				best = i
			}
		}
		out = append(out, lists[best][0])
		if lists[best] = lists[best][1:]; len(lists[best]) == 0 {
			lists = append(lists[:best], lists[best+1:]...)
		}
	}
	return out
}

// removeStable drops a frame from its owning shard's tree. Stable content is
// write-protected, so its checksum still matches the routing key it was
// inserted under.
func (k *KSM) removeStable(f mem.FrameID) bool {
	return k.shardOf(k.host.Phys().Checksum(f)).stable.remove(f)
}

// scanVerdict is a candidate's outcome, decided in classify or merge and
// applied in commit.
type scanVerdict uint8

const (
	vPending scanVerdict = iota // awaiting the merge phase
	vNotResident
	vAlreadyShared
	vHugeSkip
	vHugeSplit // huge subpage with a duplicate: split, then rescan
	vGateSkip
	vStableMerge
	vUnstableMerge
	vRecorded
)

// candidate is one page moving through the batch pipeline.
type candidate struct {
	vm  *hypervisor.VMProcess
	vpn mem.VPN
	// again marks the rescan of a split huge duplicate: the page was already
	// counted (scanned, routed) when it first went through.
	again bool

	// Filled by classify.
	frame   mem.FrameID
	sum     uint64
	shard   int32 // -1 until routed (terminal verdicts stay unrouted)
	verdict scanVerdict
	huge    bool // huge-mapped, routed to merge under a split policy

	// Filled by the merge phase.
	partner      pageKey     // vUnstableMerge: the promoted entry's page
	splitPartner bool        // vUnstableMerge: split the partner's huge mapping first
	target       mem.FrameID // merge target frame
	hashRejects  uint32      // bucket entries rejected by byte verification
	hugeSkips    uint32      // bucket entries forgone because the partner is huge
}

// processBatch runs one batch of candidates through the merge pipeline. The
// candidates must be distinct pages in scan order, collected while no guest
// ran (the simulator is event-driven, so page contents are frozen between
// scanner wake-ups). incremental selects the incremental-mode bookkeeping
// (IncrementalScanned, gate-skip deferrals); linear callers pass false even
// for the pass-straddling page scanned right after a mode switch.
func (k *KSM) processBatch(cands []candidate, incremental bool) {
	if len(k.shards) == 1 || len(cands) < minParallelBatch {
		// Inline, each candidate's phases run back to back, which serves
		// the split policies and keeps the candidate's page table and
		// content cache-hot from classify to commit.
		pm := k.host.Phys()
		for i := range cands {
			c := &cands[i]
			k.classifyOne(c, pm)
			if c.verdict == vPending || c.verdict == vGateSkip {
				k.mergeCandidate(k.shards[c.shard], c, pm)
			}
			k.commit(c, incremental)
		}
		return
	}
	if len(cands) > 1 && k.hugeSplitting() {
		// A split in commit rewrites PTEs that later candidates in the
		// batch would already have classified.
		for i := range cands {
			k.processBatch(cands[i:i+1], incremental)
		}
		return
	}
	k.classifyCandidates(cands)
	k.runShardWorkers(cands)
	k.repayViews(cands)
	for i := range cands {
		k.commit(&cands[i], incremental)
	}
}

// classifyCandidates is the fanned-out classify phase, striped across the
// worker views by candidate index. Each goroutine writes only its own slice
// of candidates.
func (k *KSM) classifyCandidates(cands []candidate) {
	nw := len(k.shards)
	chunk := (len(cands) + nw - 1) / nw
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo := w * chunk
		if lo >= len(cands) {
			break
		}
		hi := lo + chunk
		if hi > len(cands) {
			hi = len(cands)
		}
		wg.Add(1)
		go func(part []candidate, view *mem.ROView) {
			defer wg.Done()
			for i := range part {
				k.classifyOne(&part[i], view)
			}
		}(cands[lo:hi], k.shards[w].view)
	}
	wg.Wait()
}

// classifyOne is phase 2 for one candidate: PTE resolution, terminal
// verdicts, checksum, shard routing and the volatility-gate decision.
func (k *KSM) classifyOne(c *candidate, rd contentReader) {
	pte, ok := c.vm.ResidentPTE(c.vpn)
	if !ok {
		c.verdict = vNotResident
		return
	}
	c.frame = pte.Frame
	if k.host.Phys().IsKSM(c.frame) {
		c.verdict = vAlreadyShared
		return
	}
	if pte.Huge && !k.hugeSplitting() {
		c.verdict = vHugeSkip // THP hides the page from merging
		return
	}
	c.huge = pte.Huge
	c.sum = rd.Checksum(c.frame)
	c.shard = int32(c.sum % uint64(len(k.shards)))
	if k.cfg.ChecksumGate {
		// The same gate for huge subpages: splitting for a still-changing
		// one would only trade TLB reach for a merge that breaks right back.
		// A page that passes already has its checksum on record, so only a
		// skip has a sighting for commit to write.
		if last, seen := k.checksums[pageKey{vm: c.vm, vpn: c.vpn}]; !seen || last != c.sum {
			c.verdict = vGateSkip
			return
		}
	}
	c.verdict = vPending
}

// runShardWorkers fans the routed candidates out to one worker per shard
// with work. Gate-skipped candidates are routed too: a frame promoted
// earlier in the batch must flip them to already-shared, since that check
// precedes the gate.
func (k *KSM) runShardWorkers(cands []candidate) {
	if k.shardIdx == nil {
		k.shardIdx = make([][]int32, len(k.shards))
	}
	for i := range k.shardIdx {
		k.shardIdx[i] = k.shardIdx[i][:0]
	}
	for i := range cands {
		if c := &cands[i]; c.verdict == vPending || c.verdict == vGateSkip {
			k.shardIdx[c.shard] = append(k.shardIdx[c.shard], int32(i))
		}
	}
	var wg sync.WaitGroup
	for si, idxs := range k.shardIdx {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *scanShard, idxs []int32) {
			defer wg.Done()
			for _, i := range idxs {
				k.mergeCandidate(s, &cands[i], s.view)
			}
		}(k.shards[si], idxs)
	}
	wg.Wait()
}

// repayViews hands the pool what the worker views computed without caching —
// each routed candidate's checksum, and the seeded pages they regenerated —
// restoring the pool's compute-once caches for later batches. It runs before
// commit, while every frame the views read is still live and unchanged.
func (k *KSM) repayViews(cands []candidate) {
	pm := k.host.Phys()
	for i := range cands {
		if c := &cands[i]; c.shard >= 0 {
			pm.AdoptChecksum(c.frame, c.sum)
		}
	}
	for _, s := range k.shards {
		for _, f := range s.view.Fills() {
			pm.Materialize(f)
		}
		s.view.ResetFills()
	}
}

// mergeCandidate is phase 3 for one candidate: the stable-lookup /
// unstable-partner pipeline against shard-owned structures plus the batch
// overlays, with all global effects deferred to the candidate record. A huge
// candidate (split policy) stops at the first verified duplicate: commit
// splits it and rescans the page, which then merges as a base page.
func (k *KSM) mergeCandidate(s *scanShard, c *candidate, rd contentReader) {
	if _, pend := s.pendKSM[c.frame]; pend {
		// An earlier candidate in this batch promoted this very frame (two
		// pages COW-sharing it): the already-shared check fires before the
		// gate, so a gate skip's sighting is dropped too.
		c.verdict = vAlreadyShared
		return
	}
	if c.verdict == vGateSkip {
		return // gate decided in classify; only the pendKSM override above could trump it
	}
	key := pageKey{vm: c.vm, vpn: c.vpn}

	// Stable tree first.
	if stableFrame, hit := s.stable.lookupWith(c.frame, rd.Compare); hit {
		if c.huge {
			k.hugeDuplicate(c)
			return
		}
		c.verdict = vStableMerge
		c.target = stableFrame
		s.pendRemap[key] = struct{}{}
		return
	}

	// Unstable index.
	bucket := s.unstable[c.sum]
	selfSeen := false
	for bi, ent := range bucket {
		if ent.key == key {
			// The retained index of incremental mode can already hold this
			// page from an earlier round (a linear pass drops the index
			// before a page is ever revisited).
			selfSeen = true
			continue
		}
		otherFrame, otherHuge, live := k.livePartner(s, ent, rd)
		if !live {
			continue
		}
		if !k.cfg.HashOnly && !rd.Equal(c.frame, otherFrame) {
			if !c.huge {
				c.hashRejects++
			}
			continue
		}
		if c.huge {
			k.hugeDuplicate(c)
			return
		}
		if otherHuge {
			// The partner was collapsed into a huge mapping after it was
			// recorded. Under a split policy the verified duplicate
			// justifies recovering the subpage; otherwise THP wins and the
			// merge is forgone.
			if !k.canSplitHuge(ent.key.vpn) {
				c.hugeSkips++
				continue
			}
			c.splitPartner = true
		}
		// Promote: shard-owned structures mutate eagerly; the split,
		// frame-flag, write-protect, refcount and remap effects commit
		// serially.
		s.stable.insertWith(otherFrame, rd.Compare)
		s.pendKSM[otherFrame] = struct{}{}
		s.pendRemap[key] = struct{}{}
		c.verdict = vUnstableMerge
		c.partner = ent.key
		c.target = otherFrame
		s.unstable[c.sum] = append(bucket[:bi], bucket[bi+1:]...)
		s.unstableN--
		return
	}
	// No duplicate yet. A huge candidate is recorded too: duplicates that
	// are huge-mapped in every VM could never find each other otherwise.
	if !selfSeen {
		s.unstable[c.sum] = append(bucket, unstableEntry{key: key, checksum: c.sum})
		s.unstableN++
	}
	c.verdict = vRecorded
}

// livePartner resolves an unstable entry to the frame now behind its page
// and whether that page is huge-mapped. live is false for a stale entry: the
// page went away, was merged via another path (earlier in this batch
// included), or was rewritten since it was recorded.
func (k *KSM) livePartner(s *scanShard, ent unstableEntry, rd contentReader) (frame mem.FrameID, huge, live bool) {
	if _, remapped := s.pendRemap[ent.key]; remapped {
		return mem.NilFrame, false, false
	}
	pte, ok := ent.key.vm.ResidentPTE(ent.key.vpn)
	if !ok {
		return mem.NilFrame, false, false
	}
	if _, pend := s.pendKSM[pte.Frame]; pend || k.host.Phys().IsKSM(pte.Frame) {
		return mem.NilFrame, false, false
	}
	return pte.Frame, pte.Huge, rd.Checksum(pte.Frame) == ent.checksum
}

// hugeDuplicate settles a huge candidate whose subpage has a verified
// duplicate: split it if the policy can, else forgo the merge.
func (k *KSM) hugeDuplicate(c *candidate) {
	if k.canSplitHuge(c.vpn) {
		c.verdict = vHugeSplit
	} else {
		c.verdict = vHugeSkip
	}
}

// commit is phase 4 for one candidate; a batch commits in candidate (scan)
// order. It drops the candidate's overlay entries as it applies its merge.
func (k *KSM) commit(c *candidate, incremental bool) {
	pm := k.host.Phys()
	key := pageKey{vm: c.vm, vpn: c.vpn}
	if c.shard >= 0 && c.verdict != vAlreadyShared && !c.again {
		// A frame promoted mid-batch (pendKSM override) never counts as
		// routed work: the already-shared check precedes the checksum.
		k.shards[c.shard].scanned++
	}
	switch c.verdict {
	case vNotResident:
		k.stats.NotResident++
	case vAlreadyShared:
		k.stats.AlreadyShared++
	case vHugeSkip:
		k.stats.HugeSkips++
	case vHugeSplit:
		k.splitHuge(c.vm, c.vpn)
		// The page is base-grained now; rescan it so the duplicate
		// merges in this same visit (its gate entry, which it passed, lets
		// it through).
		k.processBatch([]candidate{{vm: c.vm, vpn: c.vpn, shard: -1, again: true}}, incremental)
	case vGateSkip:
		k.checksums[key] = c.sum
		k.stats.ChecksumSkips++
		if incremental {
			k.deferVolatile(key)
		}
	case vStableMerge:
		delete(k.shards[c.shard].pendRemap, key)
		pm.IncRef(c.target)
		c.vm.RemapShared(c.vpn, c.target)
		k.stats.StableMerges++
	case vUnstableMerge:
		s := k.shards[c.shard]
		delete(s.pendRemap, key)
		delete(s.pendKSM, c.target)
		k.stats.HashRejects += uint64(c.hashRejects)
		k.stats.HugeSkips += uint64(c.hugeSkips)
		if c.splitPartner {
			k.splitHuge(c.partner.vm, c.partner.vpn)
		}
		// Op order: flag, protect, tree ref, map ref, remap — DecRef
		// order inside RemapShared feeds the free stack.
		pm.SetKSM(c.target, true)
		c.partner.vm.WriteProtect(c.partner.vpn)
		pm.IncRef(c.target)
		pm.IncRef(c.target)
		c.vm.RemapShared(c.vpn, c.target)
		k.stats.UnstableMerges++
	case vRecorded:
		k.stats.HashRejects += uint64(c.hashRejects)
		k.stats.HugeSkips += uint64(c.hugeSkips)
	}
	if !c.again {
		k.stats.PagesScanned++
		if incremental {
			k.stats.IncrementalScanned++
		}
	}
}
