package main

// The layers are the simulator's modules on the path of the paper's figures:
// core, workload, jvm, cds, classlib, guestos, hypervisor, ksm, thp,
// jitshare, mem, simclock and memanalysis, plus the Go runtime ("go").
// Out of scope, with no metric of their own, as none is on the path of the
// paper's figures: datacenter, placement, powervm, faults, balloon, dump,
// diffengine, metrics, report and trace.

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the self-test holds the two together.
type metricDef struct {
	name, unit, better string
	// layer is the module the metric measures.
	layer string
	// moves names the end-to-end metric, and the workloads, a change in this
	// metric should show up in.
	moves string
}

// endToEnd metrics come from untraced runs only. Timings are medians over
// the run's repetitions; the MB metrics are simulated outputs and repeat
// exactly at a fixed seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "core", "host wall time of core.BuildCluster"},
	{"run_s", "s", "lower", "core", "host wall time of Run, MeasurePerf (overcommit9) and Analyze"},
	{"heap_mb", "MB", "lower", "go", "live Go heap after Run, after a GC, cluster still reachable"},
	{"host_used_mb", "MB", "lower", "memanalysis", "owner-oriented guest physical memory, paper MB (Fig. 2/4 total)"},
	{"tps_saved_mb", "MB", "higher", "ksm", "KSM savings, paper MB"},
}

// perLayer metrics come from traced runs. Timings are medians over the
// traced repetitions; counts repeat exactly at a fixed seed, except go.*.
var perLayer = []metricDef{
	// Phase spans.
	{"core.warmup_s", "s", "lower", "core", "run_s on preload4, overcommit9"},
	{"core.steady_s", "s", "lower", "core", "run_s on churn4"},
	{"core.perf_s", "s", "lower", "core", "run_s on overcommit9"},
	{"memanalysis.analyze_ms", "ms", "lower", "memanalysis", "run_s on overcommit9"},
	// Steady-state decomposition.
	{"workload.request_us_p50", "us", "lower", "workload", "run_s on churn4"},
	{"workload.request_us_p90", "us", "lower", "workload", "run_s on churn4"},
	{"simclock.round_ms_p50", "ms", "lower", "simclock", "run_s on preload4, churn4"},
	{"simclock.round_ms_p90", "ms", "lower", "simclock", "run_s on preload4, churn4"},
	// Self time per layer. memanalysis's self time is memanalysis.analyze_ms:
	// its one span has no children.
	{"core.self_s", "s", "lower", "core", "setup_s and run_s on all workloads"},
	{"workload.self_s", "s", "lower", "workload", "run_s on churn4"},
	{"simclock.self_s", "s", "lower", "simclock", "run_s on preload4, churn4"},
	// Post-run probes. A pass times work only where the daemon scans pages:
	// ksm.pass on the linear-scan workloads (on churn4 the incremental queue
	// is empty, 0 pages), thp.pass on churn4 (THP is off elsewhere, 0 pages).
	{"ksm.pass_ms", "ms", "lower", "ksm", "run_s on preload4 (linear scan only)"},
	{"ksm.pass_pages", "count", "higher", "ksm", "op count of ksm.pass_ms"},
	{"thp.pass_ms", "ms", "lower", "thp", "run_s on churn4 (the only workload with THP on)"},
	{"thp.pass_pages", "count", "higher", "thp", "op count of thp.pass_ms"},
	{"mem.lookup_ns", "ns", "lower", "mem", "run_s on preload4, churn4"},
	{"mem.lookup_ops", "count", "higher", "mem", "op count of mem.lookup_ns"},
	{"mem.compare_ns", "ns", "lower", "mem", "run_s on preload4"},
	{"mem.compare_ops", "count", "higher", "mem", "op count of mem.compare_ns"},
	{"mem.checksum_ns", "ns", "lower", "mem", "setup_s and run_s on preload4, overcommit9"},
	{"mem.checksum_ops", "count", "higher", "mem", "op count of mem.checksum_ns"},
	{"mem.fill_ns", "ns", "lower", "mem", "setup_s on overcommit9, run_s on churn4"},
	{"mem.fill_ops", "count", "higher", "mem", "op count of mem.fill_ns"},
	// Counts from the layers' Stats.
	{"ksm.pages_scanned", "count", "lower", "ksm", "run_s on preload4"},
	{"ksm.merges", "count", "higher", "ksm", "tps_saved_mb on all workloads"},
	{"ksm.merge_ratio", "ratio", "higher", "ksm", "run_s on preload4"},
	{"ksm.checksum_skips", "count", "higher", "ksm", "run_s on preload4"},
	{"ksm.cow_breaks", "count", "lower", "ksm", "run_s on churn4"},
	{"ksm.incremental_scanned", "count", "lower", "ksm", "run_s on churn4"},
	{"mem.materialized", "count", "lower", "mem", "heap_mb on all workloads"},
	{"mem.intern_hits", "count", "higher", "mem", "heap_mb on all workloads"},
	{"mem.cow_copies", "count", "lower", "mem", "run_s on churn4"},
	{"hypervisor.minor_faults", "count", "lower", "hypervisor", "setup_s on overcommit9"},
	{"hypervisor.major_faults", "count", "lower", "hypervisor", "run_s on overcommit9"},
	{"hypervisor.swap_outs", "count", "lower", "hypervisor", "run_s on overcommit9"},
	{"hypervisor.partial_splits", "count", "lower", "hypervisor", "run_s on churn4"},
	{"thp.collapses", "count", "lower", "thp", "run_s on churn4"},
	{"thp.demotions", "count", "lower", "thp", "run_s on churn4"},
	{"thp.reabsorbs", "count", "lower", "thp", "run_s on churn4"},
	{"simclock.events", "count", "lower", "simclock", "run_s on all workloads"},
	{"go.alloc_mb", "MB", "lower", "go", "run_s and heap_mb on overcommit9"},
	{"go.gc_cycles", "count", "lower", "go", "run_s and heap_mb on overcommit9"},
	{"go.gc_cpu_s", "s", "lower", "go", "run_s and heap_mb on overcommit9"},
	{"trace.overhead_pct", "%", "lower", "perfbench", "none: traced run_s against untraced run_s"},
}
