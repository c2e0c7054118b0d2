// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one paper scenario of the simulator (a workload) repeatedly for a
// fixed host-time budget, checks every run's simulated outputs, and prints
// each metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench --workload preload4 --seed 1 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics on untraced runs. --trace 1
// alternates untraced and traced runs: the traced ones record a span around
// every public call the benchmark makes into a layer, time post-run probes
// on the final cluster state, and report the per-layer metrics; the spans
// are written to .bench_build/spans/ when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(scenarioNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed (the cluster's BaseSeed)")
	seconds := fs.Int("seconds", 10, "host-time budget of the run, in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scenarios[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(scenarioNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := benchConfig{
		sc:     sc,
		seed:   *seed,
		scale:  core.DefaultScale,
		budget: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1,
	}
	if cfg.traced {
		cfg.spansPath = spanPath(sc.name, *seed)
	}
	out, err := bench(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out.report(stdout)
	return 0
}

// benchConfig is one benchmark invocation.
type benchConfig struct {
	sc        scenario
	seed      uint64
	scale     int
	budget    time.Duration
	traced    bool
	spansPath string // where a traced run writes its spans ("" = nowhere)
}

// outcome is a finished benchmark run.
type outcome struct {
	workload  string
	seed      uint64
	attempted int
	failures  []error
	digest    string
	samples   map[string]int // sample count behind each reported median
	defs      []metricDef
	metrics   map[string]float64
	rps       float64
}

// bench runs the scenario until the budget would be exceeded by one more
// repetition (always at least one). Untraced mode reports the end-to-end
// metrics; traced mode pairs each traced repetition with an untraced one,
// so trace.overhead_pct compares runs made under the same conditions.
func bench(cfg benchConfig, progress io.Writer) (*outcome, error) {
	out := &outcome{
		workload: cfg.sc.name,
		seed:     cfg.seed,
		samples:  map[string]int{},
		metrics:  map[string]float64{},
	}
	seed := mem.Seed(cfg.seed)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	gate := &digestGate{want: goldenDigest(cfg.sc.name, cfg.scale, cfg.seed)}
	var plain, traced []repResult
	var cycles []time.Duration
	check := func(r repResult) {
		out.attempted++
		if err := gate.check(r); err != nil {
			out.failures = append(out.failures, fmt.Errorf("%s seed %d: %w", cfg.sc.name, cfg.seed, err))
		}
	}
	start := time.Now()
	for len(cycles) == 0 || time.Since(start)+medianDur(cycles) <= cfg.budget {
		t := time.Now()
		r := runRep(cfg.sc, seed, cfg.scale, nil)
		check(r)
		plain = append(plain, r)
		fmt.Fprintf(progress, "run %d: setup %.3fs run %.3fs\n", len(plain), r.setup.Seconds(), r.run.Seconds())
		if cfg.traced {
			tr.startRun()
			r := runRep(cfg.sc, seed, cfg.scale, tr)
			check(r)
			traced = append(traced, r)
			fmt.Fprintf(progress, "traced run %d: setup %.3fs run %.3fs\n", len(traced), r.setup.Seconds(), r.run.Seconds())
		}
		cycles = append(cycles, time.Since(t))
	}

	out.digest = gate.digest
	out.rps = plain[0].sim.rps
	if !cfg.traced {
		out.defs = endToEnd
		out.put("setup_s", durs(plain, func(r repResult) time.Duration { return r.setup }))
		out.put("run_s", durs(plain, func(r repResult) time.Duration { return r.run }))
		heaps := make([]float64, len(plain))
		for i, r := range plain {
			heaps[i] = float64(r.heapBytes) / (1 << 20)
		}
		out.put("heap_mb", heaps)
		out.put("host_used_mb", []float64{plain[0].sim.hostUsedMB})
		out.put("tps_saved_mb", []float64{plain[0].sim.savedMB})
		return out, nil
	}

	out.defs = perLayer
	perRun := make([]map[string]float64, len(traced))
	for i, r := range traced {
		m := tr.runMetrics(i + 1)
		for k, v := range tr.probes[i] {
			m[k] = v
		}
		for k, v := range r.counts {
			m[k] = v
		}
		perRun[i] = m
	}
	for _, d := range perLayer {
		vals := make([]float64, len(perRun))
		for i, m := range perRun {
			vals[i] = m[d.name]
		}
		out.put(d.name, vals)
	}
	tracedRun := median(durs(traced, func(r repResult) time.Duration { return r.run }))
	plainRun := median(durs(plain, func(r repResult) time.Duration { return r.run }))
	out.metrics["trace.overhead_pct"] = (tracedRun/plainRun - 1) * 100
	out.samples["trace.overhead_pct"] = len(traced)
	if cfg.spansPath != "" {
		if err := tr.write(cfg.spansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return out, nil
}

// digestGate holds every repetition of a run, traced or not, to the first
// repetition's simulated digest, which must in turn equal the recorded
// golden digest when the workload and seed have one, and to the first
// repetition's content-store counters, which no recorded digest pins.
type digestGate struct {
	want   string // recorded digest ("" = none for this workload and seed)
	digest string // the first repetition's simulated digest
	store  string // the first repetition's content-store counters
}

// check returns the repetition's own check failure, or a digest mismatch.
func (g *digestGate) check(r repResult) error {
	if r.err != nil {
		return r.err
	}
	if g.digest == "" {
		g.digest, g.store = r.digest, r.store
		if g.want != "" && r.digest != g.want {
			return fmt.Errorf("simulated digest %s differs from the recorded %s", short(r.digest), short(g.want))
		}
		return nil
	}
	if r.digest != g.digest {
		return fmt.Errorf("simulated digest %s differs from the run's first %s", short(r.digest), short(g.digest))
	}
	if r.store != g.store {
		return fmt.Errorf("content-store counters %q differ from the run's first %q", r.store, g.store)
	}
	return nil
}

// put records the median of vals as metric name.
func (o *outcome) put(name string, vals []float64) {
	o.metrics[name] = median(vals)
	o.samples[name] = len(vals)
}

// report prints one line per metric, then the JSON result line.
func (o *outcome) report(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: %d scenario runs, %d failed, digest %s\n",
		o.workload, o.seed, o.attempted, len(o.failures), o.digest)
	for _, err := range o.failures {
		fmt.Fprintf(w, "FAIL %v\n", err)
	}
	if o.rps > 0 {
		fmt.Fprintf(w, "%-28s %14.4f %-6s (simulated, in the digest)\n", "sim_throughput_rps", o.rps, "req/s")
	}
	fmt.Fprintf(w, "%-28s %14.4f %-6s (failed runs / attempted)\n", "failed_share",
		float64(len(o.failures))/float64(o.attempted), "1")
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, d := range o.defs {
		v := o.metrics[d.name]
		fmt.Fprintf(w, "%-28s %14.4f %-6s (median of %d)\n", d.name, v, d.unit, o.samples[d.name])
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(o.failures) == 0, o.attempted, len(o.failures), metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func durs(rs []repResult, f func(repResult) time.Duration) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r).Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
