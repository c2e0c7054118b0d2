package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer was created
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// layer is the module a span times: the part of its name before the dot.
func (s span) layer() string { return s.Name[:strings.IndexByte(s.Name, '.')] }

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced path pays one nil check per call site.
type tracer struct {
	epoch time.Time
	run   int
	spans []span
	open  []int // stack of open span ids
	// probes collects the per-run probe measurements by metric name.
	probes []map[string]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// startRun begins a new run id; spans recorded until the next call share it.
func (t *tracer) startRun() {
	t.run++
	t.probes = append(t.probes, map[string]float64{})
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: time.Since(t.epoch).Seconds()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Seconds()
	t.open = t.open[:len(t.open)-1]
}

// note records one probe measurement for the current run.
func (t *tracer) note(name string, v float64) { t.probes[len(t.probes)-1][name] = v }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runMetrics derives one run's per-layer timings from its spans: the
// phase spans, percentiles of the steady-loop spans, and each layer's self
// time (span time not covered by child spans).
func (t *tracer) runMetrics(run int) map[string]float64 {
	m := map[string]float64{}
	var requests, rounds []float64
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.Run != run {
			continue
		}
		d := s.dur()
		self[s.layer()] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].layer()] -= d
		}
		switch s.Name {
		case "core.warmup":
			m["core.warmup_s"] += d
		case "core.steady":
			m["core.steady_s"] += d
		case "core.perf":
			m["core.perf_s"] += d
		case "memanalysis.analyze":
			m["memanalysis.analyze_ms"] += d * 1e3
		case "workload.request":
			requests = append(requests, d*1e6)
		case "simclock.round":
			rounds = append(rounds, d*1e3)
		}
	}
	m["workload.request_us_p50"] = percentile(requests, 50)
	m["workload.request_us_p90"] = percentile(requests, 90)
	m["simclock.round_ms_p50"] = percentile(rounds, 50)
	m["simclock.round_ms_p90"] = percentile(rounds, 90)
	for _, l := range selfLayers {
		m[l+".self_s"] = self[l]
	}
	return m
}

// selfLayers are the layers whose self time is reported. memanalysis and
// the probe layers (ksm, thp, mem) have no child spans, so
// memanalysis.analyze_ms and the pass times are their self times.
var selfLayers = []string{"core", "workload", "simclock"}

// probe times the layers' hot operations on the final cluster state. It
// runs after the digest is taken: the probes may mutate the state (a scan
// pass merges, a compare materializes) but no reported simulated number
// sees it.
func (t *tracer) probe(c *core.Cluster) {
	guestPages := 0
	for _, vm := range c.Host.VMs() {
		guestPages += vm.GuestPages()
	}

	before := c.Scanner.Stats().PagesScanned
	sp := t.begin("ksm.pass")
	c.Scanner.ScanChunk(guestPages)
	t.end(sp)
	t.note("ksm.pass_ms", t.spans[sp].dur()*1e3)
	t.note("ksm.pass_pages", float64(c.Scanner.Stats().PagesScanned-before))

	before = c.THP.Stats().PagesScanned
	sp = t.begin("thp.pass")
	c.THP.ScanChunk(guestPages)
	t.end(sp)
	t.note("thp.pass_ms", t.spans[sp].dur()*1e3)
	t.note("thp.pass_pages", float64(c.THP.Stats().PagesScanned-before))

	// Every mapped VPN of every guest, in page-table order.
	type lookupSet struct {
		pt   *mem.PageTable
		vpns []mem.VPN
	}
	var sets []lookupSet
	lookups := 0
	for _, vm := range c.Host.VMs() {
		pt := vm.HostPageTable()
		vpns := pt.SortedVPNs()
		sets = append(sets, lookupSet{pt, vpns})
		lookups += len(vpns)
	}
	present := 0
	t.timeOps("mem.lookup", lookups, func() {
		for _, s := range sets {
			for _, v := range s.vpns {
				if _, ok := s.pt.Lookup(v); ok {
					present++
				}
			}
		}
	})

	// Every adjacent pair of the stable tree's frames: distinct contents in
	// tree order, so each compare runs to the first differing byte. One
	// untimed pass materializes the frames first.
	pm := c.Host.Phys()
	stable := c.Scanner.StableFrames()
	order := 0
	comparePairs := func() {
		for i := 1; i < len(stable); i++ {
			order += pm.Compare(stable[i-1], stable[i])
		}
	}
	comparePairs()
	t.timeOps("mem.compare", len(stable)-1, comparePairs)

	// Every distinct live page content, one buffer each.
	var pages [][]byte
	seen := map[uint64]bool{}
	for id := 0; id < pm.TotalFrames(); id++ {
		f := mem.FrameID(id)
		if pm.LiveRefCount(f) == 0 {
			continue
		}
		sum := pm.Checksum(f)
		if seen[sum] {
			continue
		}
		seen[sum] = true
		pages = append(pages, pm.Bytes(f))
	}
	var sums uint64
	t.timeOps("mem.checksum", len(pages), func() {
		for _, p := range pages {
			sums ^= mem.ChecksumBytes(p)
		}
	})

	// Fill one page with a fresh seed per op, as the JVM's content writes do.
	const fills = 4096
	buf := make([]byte, pm.PageSize())
	seed := mem.Seed(0)
	t.timeOps("mem.fill", fills, func() {
		for i := 0; i < fills; i++ {
			seed++
			mem.Fill(buf, seed)
		}
	})
	probeSink = present + order + int(sums) + int(buf[0])
}

// probeSink keeps the probes' results live so the compiler cannot drop
// the timed calls.
var probeSink int

// minProbeTime is how long each per-op probe repeats its pass over the
// inputs, so short passes still give a stable ns/op.
const minProbeTime = 50 * time.Millisecond

// timeOps repeats pass (ops operations each) until minProbeTime has
// elapsed, records the whole loop as one span, and notes ns per op and the
// number of distinct inputs.
func (t *tracer) timeOps(name string, ops int, pass func()) {
	sp := t.begin(name)
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < minProbeTime {
		pass()
		passes++
	}
	elapsed := time.Since(start)
	t.end(sp)
	nsPerOp := 0.0
	if ops > 0 {
		nsPerOp = float64(elapsed.Nanoseconds()) / float64(ops*passes)
	}
	t.note(name+"_ns", nsPerOp)
	t.note(name+"_ops", float64(ops))
}

// goStats is a snapshot of the Go runtime's allocation and GC counters.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	g := goStats{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = sample[0].Value.Float64()
	}
	return g
}

// goDelta reports the runtime work between two snapshots as metrics.
func goDelta(a, b goStats) map[string]float64 {
	return map[string]float64{
		"go.alloc_mb":  float64(b.allocBytes-a.allocBytes) / (1 << 20),
		"go.gc_cycles": float64(b.gcCycles - a.gcCycles),
		"go.gc_cpu_s":  b.gcCPU - a.gcCPU,
	}
}

// percentile returns the p-th percentile (nearest rank) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// spanPath is where a traced run writes its spans, relative to the
// working directory.
func spanPath(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
