package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
)

// coarseScale is the coarsest memory scale at which every scenario still
// runs: from 24 up, churn4's guests run out of memory in the steady phase.
const coarseScale = 20

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the metric and
// workload tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(scenarioNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	compare := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program reports %s %s %s", kind, i, l, d.name, d.unit, d.better)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)

	layers := map[string]bool{"perfbench": true, "go": true}
	for _, m := range strings.Fields("core workload jvm cds classlib guestos hypervisor ksm thp jitshare mem simclock memanalysis") {
		layers[m] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !layers[d.layer] || d.moves == "" {
			t.Errorf("%s: layer %q is not a module, or it names no end-to-end metric it moves", d.name, d.layer)
		}
	}
}

// TestEveryMetricPrinted runs every workload at a coarse scale, untraced
// and traced, and checks that each named metric is printed with its unit,
// that the result line is well formed, and that no check failed — which
// includes the traced runs reproducing the untraced runs' digest.
func TestEveryMetricPrinted(t *testing.T) {
	for _, name := range scenarioNames() {
		for _, traced := range []bool{false, true} {
			out, err := bench(benchConfig{
				sc: scenarios[name], seed: 1, scale: coarseScale,
				budget: time.Nanosecond, traced: traced,
				spansPath: filepath.Join(t.TempDir(), "spans.jsonl"),
			}, &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			out.report(&buf)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, buf.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s: %+v", name, traced, d.name, d.unit, m)
				}
				if !strings.Contains(buf.String(), d.name+" ") {
					t.Errorf("%s traced=%v: metric %s not printed", name, traced, d.name)
				}
			}
		}
	}
}

// TestDigestGateFlagsMismatch shows the digest gate is not vacuous: a
// repetition at another seed, a first repetition that disagrees with the
// recorded digest, or a repetition whose content-store counters differ
// from the first one's, fails it. The store counters are not pinned by the
// recorded digest: a run whose store differs from the recording passes.
func TestDigestGateFlagsMismatch(t *testing.T) {
	sc := scenarios["preload4"]
	a := runRep(sc, mem.Seed(1), coarseScale, nil)
	b := runRep(sc, mem.Seed(2), coarseScale, nil)
	if a.err != nil || b.err != nil {
		t.Fatalf("runs failed their own checks: %v, %v", a.err, b.err)
	}
	g := &digestGate{}
	if err := g.check(a); err != nil {
		t.Fatalf("first repetition: %v", err)
	}
	if err := g.check(a); err != nil {
		t.Fatalf("same digest again: %v", err)
	}
	if err := g.check(b); err == nil {
		t.Error("a repetition at another seed passed the gate")
	}
	g = &digestGate{want: b.digest}
	if err := g.check(a); err == nil {
		t.Error("a digest differing from the recorded one passed the gate")
	}
	other := a
	other.store += " changed"
	g = &digestGate{want: a.digest}
	if err := g.check(other); err != nil {
		t.Errorf("content-store counters entered the recorded digest: %v", err)
	}
	if err := g.check(a); err == nil {
		t.Error("a repetition with other content-store counters passed the gate")
	}
}
