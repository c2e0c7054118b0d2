package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/memanalysis"
	"repro/internal/thp"
	"repro/internal/workload"
)

// scenario is one benchmark workload: a single BuildCluster → Run →
// (MeasurePerf) → Analyze run of the simulator.
type scenario struct {
	name string
	// config returns the cluster configuration at a seed and memory scale.
	config func(seed mem.Seed, scale int) core.ClusterConfig
	// perfRounds is the MeasurePerf window after Run (0 = none).
	perfRounds int
}

// scenarios are the benchmark's workloads, keyed by the --workload name.
// Jobs is always 1 (one cluster at a time) and KSMShards stays at its
// default, so the load is one single-threaded simulation.
var scenarios = map[string]scenario{
	// Fig. 4 / 5(a): the paper's headline result. Steady state is mostly
	// KSM rescans of converged memory — checksum, compare, page-table work.
	"preload4": {
		name: "preload4",
		config: func(seed mem.Seed, scale int) core.ClusterConfig {
			return core.ClusterConfig{
				Scale:         scale,
				Specs:         []workload.Spec{workload.DayTrader()},
				NumVMs:        4,
				SharedClasses: true,
				BaseSeed:      seed,
			}
		},
	},
	// The write-heavy companion of preload4: GC and re-JIT writes break
	// merged pages, dirty rings drive incremental rescans and the FHPM
	// daemon splits and re-promotes huge pages.
	"churn4": {
		name: "churn4",
		config: func(seed mem.Seed, scale int) core.ClusterConfig {
			return core.ClusterConfig{
				Scale:           scale,
				Specs:           []workload.Spec{workload.DayTrader()},
				NumVMs:          4,
				SharedClasses:   true,
				IncrementalScan: true,
				THPPolicy:       thp.PolicyFHPM,
				JITShare:        true,
				SteadyRounds:    240,
				BaseSeed:        seed,
			}
		},
	},
	// Fig. 7's top point: nine guests over-commit the 6 GB host, so setup
	// is heavy and the hypervisor evicts and swaps.
	"overcommit9": {
		name: "overcommit9",
		config: func(seed mem.Seed, scale int) core.ClusterConfig {
			return core.ClusterConfig{
				Scale:              scale,
				Specs:              []workload.Spec{workload.DayTrader()},
				NumVMs:             9,
				SharedClasses:      true,
				SteadyRounds:       8,
				IterationsPerRound: 25,
				BaseSeed:           seed,
			}
		},
		perfRounds: 20,
	},
}

// scenarioNames lists the workloads in a fixed order.
func scenarioNames() []string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// repResult is one scenario run: its host timings, the simulated outputs
// and the verdict of the correctness checks.
type repResult struct {
	setup, run time.Duration
	heapBytes  uint64 // live Go heap after Run, probed outside the timings
	sim        simOutputs
	counts     map[string]float64 // layer counters, plus go.* on traced runs
	digest     string             // simulated design's numbers; see digestOf
	store      string             // content-store counters; see storeDigestOf
	err        error
}

// simOutputs are the simulated design's end-to-end numbers, in paper units.
// They depend only on the seed and scale.
type simOutputs struct {
	hostUsedMB float64
	savedMB    float64
	rps        float64 // aggregate modelled req/s (0 without MeasurePerf)
}

// runRep executes one scenario. With tr == nil it is an untraced run and
// Run is one call. With a tracer, every public call is wrapped in a span,
// the steady loop is driven round by round from here, and the post-run
// probes follow the digest. The live heap is probed after Run in both modes,
// outside the timings, so traced and untraced run_s stay comparable.
func runRep(sc scenario, seed mem.Seed, scale int, tr *tracer) repResult {
	var r repResult
	cfg := sc.config(seed, scale)

	// Collect the previous repetition's cluster first, so every repetition
	// starts from the same heap.
	runtime.GC()
	var g0 goStats
	if tr != nil {
		g0 = readGoStats()
	}
	root := tr.begin("perfbench.scenario")
	t0 := time.Now()
	sp := tr.begin("core.build")
	c := core.BuildCluster(cfg)
	tr.end(sp)
	r.setup = time.Since(t0)

	t1 := time.Now()
	if tr == nil {
		c.Run()
	} else {
		sp = tr.begin("core.warmup")
		c.RunWarmup()
		tr.end(sp)
		runSteadyTraced(c, tr)
	}
	runPart := time.Since(t1)
	r.heapBytes = liveHeap()

	t2 := time.Now()
	var perf []core.VMPerf
	if sc.perfRounds > 0 {
		sp = tr.begin("core.perf")
		perf = c.MeasurePerf(sc.perfRounds)
		tr.end(sp)
	}
	sp = tr.begin("memanalysis.analyze")
	a := c.Analyze()
	tr.end(sp)
	r.run = runPart + time.Since(t2)
	tr.end(root)

	r.sim = simOutputsOf(c, a, perf)
	r.counts = layerCounts(c)
	r.digest = digestOf(c, a, perf)
	r.store = storeDigestOf(c)
	r.err = checkRep(c, sc, r.sim)
	if tr != nil {
		for k, v := range goDelta(g0, readGoStats()) {
			r.counts[k] = v
		}
		tr.probe(c)
	}
	return r
}

// runSteadyTraced is core.Cluster.RunSteady driven from outside through
// the same public calls, one span per instance per round for the mutator and
// one per round for the clock's daemons.
func runSteadyTraced(c *core.Cluster, tr *tracer) {
	steady := tr.begin("core.steady")
	for round := 0; round < c.Cfg.SteadyRounds; round++ {
		for _, w := range c.Workers {
			sp := tr.begin("workload.request")
			w.RunSteadyState(c.Cfg.IterationsPerRound)
			tr.end(sp)
		}
		sp := tr.begin("simclock.round")
		c.Clock.RunFor(c.Cfg.RoundDuration)
		tr.end(sp)
	}
	tr.end(steady)
}

// liveHeap reports the live Go heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func simOutputsOf(c *core.Cluster, a *memanalysis.Analysis, perf []core.VMPerf) simOutputs {
	toMB := func(b int64) float64 { return float64(c.ScaleBytes(b)) / (1 << 20) }
	var s simOutputs
	for _, b := range a.VMBreakdowns() {
		s.hostUsedMB += toMB(b.Total())
		s.savedMB += toMB(b.SavingsBytes)
	}
	s.rps = core.Aggregate(perf)
	return s
}

// layerCounts reads the layers' public counters on the final state.
func layerCounts(c *core.Cluster) map[string]float64 {
	ks := c.Scanner.Stats()
	hs := c.Host.Stats()
	ts := c.THP.Stats()
	pm := c.Host.Phys()
	cs := pm.ContentStats()
	merges := ks.StableMerges + ks.UnstableMerges
	ratio := 0.0
	if ks.PagesScanned > 0 {
		ratio = float64(merges) / float64(ks.PagesScanned)
	}
	return map[string]float64{
		"ksm.pages_scanned":         float64(ks.PagesScanned),
		"ksm.merges":                float64(merges),
		"ksm.merge_ratio":           ratio,
		"ksm.checksum_skips":        float64(ks.ChecksumSkips),
		"ksm.cow_breaks":            float64(ks.COWBreaks),
		"ksm.incremental_scanned":   float64(ks.IncrementalScanned),
		"mem.materialized":          float64(pm.Stats().Materialized),
		"mem.intern_hits":           float64(cs.InternHits),
		"mem.cow_copies":            float64(cs.COWCopies),
		"hypervisor.minor_faults":   float64(hs.MinorFaults),
		"hypervisor.major_faults":   float64(hs.MajorFaults),
		"hypervisor.swap_outs":      float64(hs.SwapOuts),
		"hypervisor.partial_splits": float64(hs.PartialSplits),
		"thp.collapses":             float64(ts.Collapses),
		"thp.demotions":             float64(ts.Demotions),
		"thp.reabsorbs":             float64(ts.Reabsorbs),
		"simclock.events":           float64(c.Clock.Fired()),
	}
}

// digestOf hashes the simulated design's numbers, each field named: the
// Analyze VM and Java breakdowns, the ksm, hypervisor (host and per-VM) and
// thp counters, the frame allocator's counts, the clock and the modelled
// performance. Host timing and the way the simulator stores page contents
// never enter it, so it must be identical across repetitions, traced and
// untraced runs, and any two correct versions of the simulator at the same
// seed — including one that materializes, interns or caches differently.
func digestOf(c *core.Cluster, a *memanalysis.Analysis, perf []core.VMPerf) string {
	h := sha256.New()
	put := func(label string, vals ...any) {
		fmt.Fprintln(h, append([]any{label}, vals...)...)
	}
	for _, b := range a.VMBreakdowns() {
		put("vm", b.VMName, b.VMID, b.JavaBytes, b.OtherProcBytes, b.KernelBytes,
			b.VMOverheadBytes, b.SavingsBytes)
	}
	for _, jb := range a.JavaBreakdowns() {
		put("java", jb.VMName, jb.VMID, jb.ProcName, jb.PID)
		cats := make([]string, 0, len(jb.ByCat))
		for cat := range jb.ByCat {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		for _, cat := range cats {
			u := jb.ByCat[cat]
			put("cat", cat, u.MappedBytes, u.OwnedBytes, u.SharedBytes)
		}
	}
	ks := c.Scanner.Stats()
	put("ksm", ks.PagesShared, ks.PagesSharing, ks.SavedBytes, ks.FullScans,
		ks.PagesScanned, ks.StableMerges, ks.UnstableMerges, ks.ChecksumSkips,
		ks.AlreadyShared, ks.NotResident, ks.COWBreaks, ks.StalePruned, ks.Stalls,
		ks.HashRejects, ks.HugeSkips, ks.HugeSplits, ks.HugePartialSplits,
		ks.IncrementalRounds, ks.IncrementalScanned, ks.DirtyDrained,
		ks.RingOverflows, ks.CPUBusy, ks.CPUWall, ks.StalledTime)
	hs := c.Host.Stats()
	put("host", hs.MajorFaults, hs.SwapOuts, hs.COWBreaks, hs.MinorFaults,
		hs.Collapses, hs.HugeSplits, hs.PartialSplits, hs.Reabsorbs, hs.Kills,
		hs.Restarts)
	for _, vm := range c.Host.VMs() {
		vs := vm.Stats()
		put("vmstats", vm.Name(), vs.ResidentPages, vs.SwappedPages,
			vs.MajorFaults, vs.MinorFaults, vs.COWBreaks)
	}
	ts := c.THP.Stats()
	put("thp", ts.PagesScanned, ts.Collapses, ts.CollapseFailed, ts.FullScans,
		ts.Splits, ts.PartialSplits, ts.Demotions, ts.Reabsorbs)
	ms := c.Host.Phys().Stats()
	put("frames", ms.Allocs, ms.Frees, ms.InUse, ms.Free)
	put("clock", c.Clock.Fired(), c.Clock.Now())
	for _, p := range perf {
		put("perf", p.VMName, p.Workload, p.Throughput, p.LatencySec,
			p.FaultsPerReq, p.SLAViolated, p.BaseRate, p.ClientThreads)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// storeDigestOf hashes the content store's counters: how the simulator
// holds page contents, not what it simulates. They must repeat exactly
// between the repetitions of one run, but no recorded digest pins them, so
// a change to the store's representation passes the gate.
func storeDigestOf(c *core.Cluster) string {
	pm := c.Host.Phys()
	cs := pm.ContentStats()
	return fmt.Sprint(pm.Stats().Materialized, cs.Blobs, cs.BlobBytes,
		cs.InternedBlobs, cs.SeedSums, cs.InternHits, cs.COWCopies)
}

// checkRep runs the per-run correctness checks that do not need a second
// run: frame and swap-slot conservation, and the simulated outputs being
// present at all.
func checkRep(c *core.Cluster, sc scenario, s simOutputs) error {
	if err := c.CheckLeaks(); err != nil {
		return fmt.Errorf("leak check: %w", err)
	}
	if s.hostUsedMB <= 0 || s.savedMB <= 0 {
		return fmt.Errorf("no memory accounted (used %.1f MB, saved %.1f MB)", s.hostUsedMB, s.savedMB)
	}
	if sc.perfRounds > 0 && s.rps <= 0 {
		return errors.New("no modelled throughput")
	}
	return nil
}
