package ksm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// forceParallel drops the batch-size threshold so every batch — even the
// one-page pass-straddler — runs through classify, the shard workers and the
// serial commit. Restored on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	old := minParallelBatch
	minParallelBatch = 1
	t.Cleanup(func() { minParallelBatch = old })
}

// shardOutcome is everything a figure can observe from a scanner run: the
// statistics word for word, the stable tree in content order, the physical
// frame behind every guest page, and the pool occupancy before and after an
// unmerge (the latter exercises the ordered free path). Byte-identity of this
// struct across shard counts is the tentpole contract.
type shardOutcome struct {
	stats        Stats
	stable       []mem.FrameID
	frames       [][]int64
	inUse        int
	routed       uint64
	afterUnmerge int
}

func captureOutcome(f *fixture) shardOutcome {
	o := shardOutcome{
		stats:  f.k.Stats(),
		stable: f.k.StableFrames(),
		inUse:  f.host.Phys().FramesInUse(),
	}
	for _, vm := range f.vms {
		row := make([]int64, vm.GuestPages())
		for i := range row {
			row[i] = -1
			if fr, ok := vm.ResolveResident(vm.MemslotBase() + mem.VPN(i)); ok {
				row[i] = int64(fr)
			}
		}
		o.frames = append(o.frames, row)
	}
	for _, n := range f.k.ShardPagesScanned() {
		o.routed += n
	}
	f.k.Unmerge()
	o.afterUnmerge = f.host.Phys().FramesInUse()
	return o
}

// digest condenses an outcome, minus its routed-candidate count, into a
// string a test can pin as a literal.
func (o shardOutcome) digest() string {
	o.routed = 0
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", o)))
	return hex.EncodeToString(sum[:12])
}

// serialOutcomes pins every equivalence scenario's one-shard outcome as the
// page-at-a-time scanner (scanPage/scanHugePage, since folded into the batch
// pipeline) produced it, so run(1) is checked against that scanner and not
// only against run(N). The routed count is pinned apart from the digest: the
// page-at-a-time scanner counted a split huge duplicate twice (once before
// the split, once on the rescan), and the pipeline counts it once, so the
// split scenarios' routed totals are the corrected ones.
var serialOutcomes = map[string]struct {
	digest string
	routed uint64
}{
	"linear":      {"8847b2f499e8d6f75803daeb", 300},
	"incremental": {"0d110c5b1dd3a954433cb19b", 56},
	"large-batch": {"c5f6c64c969132ec161a3597", 1154},
	// Routed totals were 12817, 3586, 11778 and 3587 under the double count;
	// each drops by the scenario's number of split-and-rescanned huge
	// duplicates (1016, 511, 3 and 1).
	"split-partial-linear":      {"dbcdd5cb34f6eac5541aff8c", 11801},
	"split-partial-incremental": {"0bf66705d4096a5026571fc3", 3075},
	"split-whole-linear":        {"f4206c1371920c0fe99e291d", 11775},
	"split-whole-incremental":   {"890d694d663e7359408857fc", 3586},
}

func checkSerialOutcome(t *testing.T, name string, o shardOutcome) {
	t.Helper()
	want, ok := serialOutcomes[name]
	if !ok {
		t.Fatalf("no serial reference for scenario %q", name)
	}
	if got := o.digest(); got != want.digest {
		t.Errorf("%s: one-shard outcome digest %s, want the serial scanner's %s", name, got, want.digest)
	}
	if o.routed != want.routed {
		t.Errorf("%s: routed %d, want %d", name, o.routed, want.routed)
	}
}

// TestShardedLinearMatchesUnsharded is the tentpole equivalence test: the same
// scripted workload — cross-VM duplicates, intra-VM duplicates, uniques,
// post-convergence churn that COW-breaks merged pages, and a mid-run
// unregister — must leave identical stats, an identical stable tree, and the
// same frame behind every page at shard counts 1, 2 and 4. The threshold is
// forced down so the 2- and 4-shard runs really take the parallel pipeline.
func TestShardedLinearMatchesUnsharded(t *testing.T) {
	forceParallel(t)
	run := func(shards int) shardOutcome {
		cfg := DefaultConfig()
		cfg.Shards = shards
		f := newFixture(t, 2048, 3, 24, cfg)
		for vi, vm := range f.vms {
			for i := uint64(0); i < 8; i++ {
				vm.FillGuestPage(i, mem.Seed(100+i)) // duplicated across all VMs
			}
			vm.FillGuestPage(8, mem.Seed(50)) // duplicated within and across VMs
			vm.FillGuestPage(9, mem.Seed(50))
			for i := uint64(10); i < 20; i++ {
				vm.FillGuestPage(i, mem.Seed(uint64(vi+1)*1000+i)) // unique
			}
		}
		f.scanPasses(3)
		// Churn: break two shared pages with a fresh duplicate pair, and point
		// a unique page at already-stable content.
		f.vms[0].FillGuestPage(2, mem.Seed(9001))
		f.vms[1].FillGuestPage(2, mem.Seed(9001))
		f.vms[2].FillGuestPage(15, mem.Seed(103))
		f.scanPasses(3)
		f.k.Unregister(f.vms[1])
		f.scanPasses(2)
		return captureOutcome(f)
	}
	base := run(1)
	if base.stats.StableMerges == 0 || base.stats.UnstableMerges == 0 || base.stats.COWBreaks == 0 {
		t.Fatalf("scenario too tame to prove anything: %+v", base.stats)
	}
	checkSerialOutcome(t, "linear", base)
	for _, n := range []int{2, 4} {
		if got := run(n); !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d diverged from unsharded:\nbase %+v\ngot  %+v", n, base, got)
		}
	}
}

// TestShardedIncrementalMatchesUnsharded: the same contract over the
// dirty-ring path — the retained unstable index, gate-skip deferrals and
// event-gated prunes all live behind the sharded structures too.
func TestShardedIncrementalMatchesUnsharded(t *testing.T) {
	forceParallel(t)
	run := func(shards int) shardOutcome {
		cfg := incrementalConfig()
		cfg.Shards = shards
		f := newDirtyFixture(t, 2048, 3, 32, 0, cfg)
		for _, vm := range f.vms {
			for i := uint64(0); i < 8; i++ {
				vm.FillGuestPage(i, mem.Seed(500+i))
			}
		}
		f.k.ScanChunk(96)
		f.k.ScanChunk(96)
		if !f.k.incremental {
			t.Fatal("not incremental after two passes")
		}
		// Post-convergence churn: break shared pages, seed a new duplicate
		// pair, and rewrite a private page; then several rounds so the
		// two-sighting gate resolves everything.
		f.vms[0].FillGuestPage(2, mem.Seed(9001))
		f.vms[1].FillGuestPage(20, mem.Seed(8000))
		f.vms[2].FillGuestPage(20, mem.Seed(8000))
		f.vms[2].FillGuestPage(25, mem.Seed(8500))
		for i := 0; i < 4; i++ {
			f.k.ScanChunk(96)
		}
		return captureOutcome(f)
	}
	base := run(1)
	if base.stats.IncrementalScanned == 0 {
		t.Fatal("scenario never used the incremental queue")
	}
	checkSerialOutcome(t, "incremental", base)
	for _, n := range []int{2, 4} {
		if got := run(n); !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d diverged from unsharded:\nbase %+v\ngot  %+v", n, base, got)
		}
	}
}

// TestShardedLargeBatchMatchesSerial runs pass-sized batches above the real
// dispatch threshold (no override), so the production worker pool actually
// fans out — and, under the CI -race run of this package, its synchronization
// is exercised at full batch width. The full outcome is compared, so frame
// assignment and stable order are checked at that width too.
func TestShardedLargeBatchMatchesSerial(t *testing.T) {
	run := func(shards int) shardOutcome {
		cfg := DefaultConfig()
		cfg.Shards = shards
		f := newFixture(t, 4096, 4, 128, cfg)
		for vi, vm := range f.vms {
			for i := uint64(0); i < 64; i++ {
				vm.FillGuestPage(i, mem.Seed(100+i))
			}
			for i := uint64(64); i < 96; i++ {
				vm.FillGuestPage(i, mem.Seed(uint64(vi+1)*10000+i))
			}
		}
		f.scanPasses(3)
		f.vms[0].FillGuestPage(5, mem.Seed(31337))
		f.vms[3].FillGuestPage(70, mem.Seed(107))
		f.scanPasses(2)
		return captureOutcome(f)
	}
	base := run(1)
	checkSerialOutcome(t, "large-batch", base)
	for _, n := range []int{2, 4} {
		if got := run(n); !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d diverged from unsharded:\nbase %+v\ngot  %+v", n, base, got)
		}
	}
}

// runSplitLinear drives every huge-page verdict of the split policies in
// linear mode: a huge subpage with a stable hit (VM 2's run 0), a base page
// whose unstable partner is huge (VM 1 against VM 0's run 0), uncarvable
// heads, and intra-block duplicates (VM 0's run 1), where a whole-block split
// rewrites the PTEs of subpages still ahead of the cursor in the same scan
// chunk. Then churn, an unregister, and the outcome with its unmerge.
func runSplitLinear(t *testing.T, cfg Config) shardOutcome {
	f := newFixture(t, 16*hp, 3, 2*hp, cfg)
	for vi, vm := range f.vms {
		for i := uint64(0); i < hp; i++ {
			vm.FillGuestPage(i, mem.Seed(4000+i))
			if vi == 0 {
				vm.FillGuestPage(hp+i, mem.Seed(6000+i%8))
			} else {
				vm.FillGuestPage(hp+i, mem.Combine(mem.Seed(vi), mem.Seed(7000+i)))
			}
		}
	}
	for _, vm := range []*hypervisor.VMProcess{f.vms[0], f.vms[2]} {
		for _, head := range []mem.VPN{vm.MemslotBase(), vm.MemslotBase() + hp} {
			if got := vm.CollapseHuge(head, 0); got.String() != "ok" {
				t.Fatalf("setup collapse: %v", got)
			}
		}
	}
	f.scanPasses(3)
	f.vms[1].FillGuestPage(3, mem.Seed(9001))
	f.vms[2].FillGuestPage(hp+3, mem.Seed(6001))
	f.scanPasses(3)
	f.k.Unregister(f.vms[1])
	f.scanPasses(2)
	return captureOutcome(f)
}

// runSplitIncremental drives the split policies over the dirty-ring path. A
// huge run collapsed after the switch is recorded in the retained unstable
// index; a later round then queues a base page of the same VM whose partner
// is a subpage of that run, followed by another subpage of the run — so
// under SplitHugePages the partner's whole block is split while one of its
// later subpages is still queued in the same scan chunk.
func runSplitIncremental(t *testing.T, cfg Config) shardOutcome {
	cfg.IncrementalScan = true
	f := newDirtyFixture(t, 16*hp, 2, 2*hp, 0, cfg)
	for _, vm := range f.vms {
		for i := uint64(0); i < hp; i++ {
			vm.FillGuestPage(i, mem.Seed(4000+i))
		}
	}
	if got := f.vms[1].CollapseHuge(f.vms[1].MemslotBase(), 0); got.String() != "ok" {
		t.Fatalf("setup collapse: %v", got)
	}
	round := func() { f.k.ScanChunk(4 * hp) }
	round()
	round()
	if !f.k.incremental {
		t.Fatal("not incremental after two passes")
	}
	vm := f.vms[0]
	for i := uint64(0); i < hp; i++ {
		vm.FillGuestPage(hp+i, mem.Seed(5000+i))
	}
	if got := vm.CollapseHuge(vm.MemslotBase()+hp, 0); got.String() != "ok" {
		t.Fatalf("collapse after the switch: %v", got)
	}
	round() // first sightings of run 1, deferred by the gate
	vm.FillGuestPage(5, mem.Seed(5000+10))
	vm.FillGuestPage(hp+20, mem.Seed(5555))
	round() // run 1 recorded; pages 5 and hp+20 deferred again
	for i := 0; i < 4; i++ {
		round()
	}
	return captureOutcome(f)
}

// TestSplitPoliciesIdenticalAcrossShardCounts: both split policies, linear
// and incremental, under forced fan-out, leave the same full outcome at one,
// two and four shards — and the one-shard outcome is the serial scanner's.
func TestSplitPoliciesIdenticalAcrossShardCounts(t *testing.T) {
	forceParallel(t)
	policies := []struct {
		name string
		set  func(*Config)
	}{
		{"partial", func(c *Config) { c.PartialSplitHuge = true }},
		{"whole", func(c *Config) { c.SplitHugePages = true }},
	}
	scenarios := []struct {
		name string
		run  func(*testing.T, Config) shardOutcome
	}{
		{"linear", runSplitLinear},
		{"incremental", runSplitIncremental},
	}
	for _, p := range policies {
		for _, sc := range scenarios {
			name := "split-" + p.name + "-" + sc.name
			run := func(shards int) shardOutcome {
				cfg := DefaultConfig()
				p.set(&cfg)
				cfg.Shards = shards
				return sc.run(t, cfg)
			}
			base := run(1)
			if base.stats.HugeSplits+base.stats.HugePartialSplits == 0 || base.stats.UnstableMerges == 0 {
				t.Fatalf("%s: scenario never split and merged: %+v", name, base.stats)
			}
			checkSerialOutcome(t, name, base)
			for _, n := range []int{2, 4} {
				if got := run(n); !reflect.DeepEqual(got, base) {
					t.Fatalf("%s: shards=%d diverged from unsharded:\nbase %+v\ngot  %+v", name, n, base, got)
				}
			}
		}
	}
}

// TestShardRoutingSpreadsWork: the checksum partition must actually spread
// routed candidates over the shards rather than collapsing onto one, and the
// per-shard counts must sum to the total routed work.
func TestShardRoutingSpreadsWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	f := newFixture(t, 1024, 2, 32, cfg)
	for i := uint64(0); i < 32; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(3000+i))
		f.vms[1].FillGuestPage(i, mem.Seed(3000+i))
	}
	f.scanPasses(3)
	counts := f.k.ShardPagesScanned()
	if len(counts) != 4 {
		t.Fatalf("ShardPagesScanned returned %d shards, want 4", len(counts))
	}
	var total uint64
	busy := 0
	for _, n := range counts {
		total += n
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("checksum routing collapsed onto %d shard(s): %v", busy, counts)
	}
	// Every scanned page here is resident and never already-shared at
	// checksum time in pass 1-2; compare against the routed subset.
	s := f.k.Stats()
	if want := s.PagesScanned - s.AlreadyShared - s.NotResident; total != want {
		t.Fatalf("per-shard counts sum to %d, want %d (%v)", total, want, counts)
	}
}

// TestHugeScanIgnoresPromotedUnstablePartner is the huge-candidate staleness
// regression: an unstable-index entry whose page has since been promoted to a
// KSM frame is dead. The base-page path skipped it with an explicit IsKSM
// test, but the old huge-candidate path only compared checksums, so the stale
// entry (checksum still matching, content write-protected and shared) could
// vouch for a "duplicate found" verdict and split a huge mapping that the
// stable-tree lookup had already declined to split. Both now share one
// partner check (livePartner).
func TestHugeScanIgnoresPromotedUnstablePartner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SplitHugePages = true
	cfg.ChecksumGate = false // let the first sighting reach the merge pipeline
	f := newFixture(t, 8*hp, 2, 2*hp, cfg)
	base, huge := f.vms[0], f.vms[1]
	huge.FillGuestPage(0, mem.Seed(4000))
	for i := uint64(1); i < hp; i++ {
		huge.FillGuestPage(i, mem.Seed(5000+i))
	}
	if got := huge.CollapseHuge(huge.MemslotBase(), 0); got.String() != "ok" {
		t.Fatalf("setup collapse: %v", got)
	}
	base.FillGuestPage(0, mem.Seed(4000))

	// Fabricate the stale state the retained index of incremental mode can
	// reach: base's page 0 sits in the unstable index, but its frame has been
	// promoted to a KSM page without the entry being removed. The recorded
	// checksum still matches the (write-protected) content.
	pm := f.host.Phys()
	vpn := base.MemslotBase()
	frame, ok := base.ResolveResident(vpn)
	if !ok {
		t.Fatal("setup: base page not resident")
	}
	sum := pm.Checksum(frame)
	sh := f.k.shardOf(sum)
	sh.unstable[sum] = append(sh.unstable[sum], unstableEntry{key: pageKey{vm: base, vpn: vpn}, checksum: sum})
	sh.unstableN++
	pm.SetKSM(frame, true)
	base.WriteProtect(vpn)

	// Scan up to and including the huge run's head subpage, whose content
	// matches the stale entry byte for byte. A KSM partner must not justify a
	// split: the stable tree (empty here) is the only authority on stable
	// content.
	f.k.ScanChunk(2*hp + 1)
	s := f.k.Stats()
	if s.HugeSplits != 0 {
		t.Fatalf("stale KSM-frame partner split the huge mapping (%d splits)", s.HugeSplits)
	}
	if huge.HugeMappings() != 1 {
		t.Fatal("huge mapping dissolved")
	}
}

// TestIncrementalRoundResnapshotsPassBaseline is the per-pass gauge regression
// (satellite): endPass never runs again once the scanner goes incremental, so
// unless every round re-snapshots passStart, the ksm.pass.* gauges silently
// turn into cumulative-since-switch counters.
func TestIncrementalRoundResnapshotsPassBaseline(t *testing.T) {
	f := newDirtyFixture(t, 512, 2, 32, 0, incrementalConfig())
	f.k.ScanChunk(64)
	f.k.ScanChunk(64)
	if !f.k.incremental {
		t.Fatal("not incremental after two passes")
	}
	// Round 1: one dirtied page (gate first sighting, deferred).
	f.vms[0].FillGuestPage(3, mem.Seed(9001))
	before := f.k.stats.PagesScanned
	f.k.ScanChunk(64)
	if f.k.passStart.PagesScanned != before {
		t.Fatalf("round 1 baseline = %d, want the round-start snapshot %d",
			f.k.passStart.PagesScanned, before)
	}
	if got := f.k.stats.PagesScanned - f.k.passStart.PagesScanned; got != 1 {
		t.Fatalf("round 1 per-pass delta = %d, want 1", got)
	}
	// Round 2: the deferred revisit. The baseline must advance again — under
	// the bug it stayed frozen at the mode-switch snapshot forever.
	before = f.k.stats.PagesScanned
	f.k.ScanChunk(64)
	if f.k.passStart.PagesScanned != before {
		t.Fatalf("round 2 baseline = %d, want %d (stale pass snapshot?)",
			f.k.passStart.PagesScanned, before)
	}
	// Idle round: baseline advances to the current counters, delta zero.
	before = f.k.stats.PagesScanned
	f.k.ScanChunk(64)
	if f.k.passStart.PagesScanned != before || f.k.stats.PagesScanned != before {
		t.Fatalf("idle round: baseline %d, scanned %d, want both %d",
			f.k.passStart.PagesScanned, f.k.stats.PagesScanned, before)
	}
}

// TestUnregisterOnlyVMMidPassEndsPass is the empty-scan-list half of the
// pass-boundary regression (satellite): unregistering the only VM mid-pass
// wraps the cursor past a list with zero survivors — all of which were,
// vacuously, scanned — and the old `len(regions) > 0` guard swallowed exactly
// this endPass, leaking the unstable index and the FullScans/streak count.
func TestUnregisterOnlyVMMidPassEndsPass(t *testing.T) {
	f := newFixture(t, 256, 1, 16, DefaultConfig())
	for i := uint64(0); i < 16; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(40+i))
	}
	f.k.ScanChunk(16) // exactly pass 1: volatility-gate first sightings
	f.k.ScanChunk(8)  // mid-pass 2: 8 second sightings land in the index
	if f.k.unstableTotal() != 8 {
		t.Fatalf("unstable entries mid-pass = %d, want 8", f.k.unstableTotal())
	}
	f.k.Unregister(f.vms[0])
	s := f.k.Stats()
	if s.FullScans != 2 {
		t.Fatalf("FullScans = %d after last-region unregister, want 2", s.FullScans)
	}
	if f.k.unstableTotal() != 0 {
		t.Fatalf("unstable index survived the vacuous pass boundary: %d entries",
			f.k.unstableTotal())
	}
	// The emptied scanner must idle cleanly.
	f.k.ScanChunk(64)
	if got := f.k.Stats(); got.PagesScanned != s.PagesScanned || got.FullScans != 2 {
		t.Fatalf("empty scanner did work: %+v", got)
	}
}

// TestDrainedIncrementalQueueReleasesBacking (satellite): consuming the round
// via incQueue[1:] pins every drained range — head included — in the backing
// array; a fully drained queue must drop to nil so a converged idle phase
// holds no round-sized allocation.
func TestDrainedIncrementalQueueReleasesBacking(t *testing.T) {
	f := newDirtyFixture(t, 512, 2, 32, 0, incrementalConfig())
	f.k.ScanChunk(64)
	f.k.ScanChunk(64)
	if !f.k.incremental {
		t.Fatal("not incremental after two passes")
	}
	for i := uint64(0); i < 6; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(7000+i))
	}
	f.k.ScanChunk(64) // drains the whole round
	if f.k.incQueue != nil {
		t.Fatalf("drained queue retains backing array (cap %d)", cap(f.k.incQueue))
	}
	// A partially drained round must keep its remainder.
	for i := uint64(0); i < 6; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(8000+i))
	}
	f.k.ScanChunk(3)
	if len(f.k.incQueue) == 0 {
		t.Fatal("partially drained round lost its remaining work")
	}
	f.k.ScanChunk(64)
	if f.k.incQueue != nil {
		t.Fatal("queue backing array retained after the round finished")
	}
}

// TestDirtyRingDepthGaugeAllocFree (satellite): the ring-depth gauge walks the
// maintained unique-VM list — correct against a manual sum, tracking
// Unregister, and allocation-free per sample (the old version rebuilt a dedup
// map over the region list on every metrics tick).
func TestDirtyRingDepthGaugeAllocFree(t *testing.T) {
	f := newDirtyFixture(t, 512, 3, 16, 0, incrementalConfig())
	f.vms[0].FillGuestPage(1, mem.Seed(7))
	f.vms[0].FillGuestPage(2, mem.Seed(8))
	f.vms[1].FillGuestPage(3, mem.Seed(9))
	want := 0
	for _, vm := range f.vms {
		want += vm.DirtyLogDepth()
	}
	if want == 0 {
		t.Fatal("fixture produced no ring depth")
	}
	if got := f.k.DirtyRingDepth(); got != want {
		t.Fatalf("DirtyRingDepth = %d, want %d", got, want)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = f.k.DirtyRingDepth() }); avg != 0 {
		t.Fatalf("DirtyRingDepth allocates %.1f objects per sample, want 0", avg)
	}
	f.k.Unregister(f.vms[0])
	want = f.vms[1].DirtyLogDepth() + f.vms[2].DirtyLogDepth()
	if got := f.k.DirtyRingDepth(); got != want {
		t.Fatalf("DirtyRingDepth after unregister = %d, want %d", got, want)
	}
}

// TestSplitDuplicateRoutedOnce: a huge-mapped subpage that is a verified
// duplicate is split and rescanned within one visit, and that visit reaches
// the pipeline once, so the routed total (ksm.shard.pages_scanned) rises by
// exactly one. The page-at-a-time scanner counted it twice: before the split
// and again on the rescan.
func TestSplitDuplicateRoutedOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		skip int // pages scanned past VM 0 before the probe
	}{
		// The head subpage is uncarvable, so the partial probe is subpage 1.
		{"partial", func(c *Config) { c.PartialSplitHuge = true }, 1},
		{"whole", func(c *Config) { c.SplitHugePages = true }, 0},
	} {
		cfg := DefaultConfig()
		cfg.ChecksumGate = false
		tc.set(&cfg)
		f := hugeFixture(t, cfg)
		f.k.ScanChunk(2*hp + tc.skip) // VM 0's huge run lands in the unstable index
		routed := func() (n uint64) {
			for _, c := range f.k.ShardPagesScanned() {
				n += c
			}
			return n
		}
		before, s0 := routed(), f.k.Stats()
		f.k.ScanChunk(1) // VM 1's huge-mapped duplicate of it
		s := f.k.Stats()
		if s.PagesScanned != s0.PagesScanned+1 || s.UnstableMerges != s0.UnstableMerges+1 {
			t.Fatalf("%s: probe did not scan and merge one page: before %+v after %+v", tc.name, s0, s)
		}
		if s.HugeSplits+s.HugePartialSplits == s0.HugeSplits+s0.HugePartialSplits {
			t.Fatalf("%s: probe merged without a split", tc.name)
		}
		if got := routed() - before; got != 1 {
			t.Fatalf("%s: routed total rose by %d for one split duplicate, want 1", tc.name, got)
		}
	}
}
