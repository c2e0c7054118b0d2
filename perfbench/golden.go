package main

import (
	_ "embed"
	"encoding/json"
	"strconv"

	"repro/internal/core"
)

// goldenJSON records the simulated digest of each workload at the default
// scale for a set of seeds, taken from the tree that defined the benchmark.
// A run at one of these seeds must reproduce its digest exactly, so a change
// that speeds the simulator up but moves any simulated number fails the
// benchmark. Seeds not listed are checked for repeatability only.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]map[string]string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("perfbench: golden.json: " + err.Error())
	}
	return g
}()

// goldenDigest returns the recorded digest of workload at seed, or "".
func goldenDigest(workload string, scale int, seed uint64) string {
	if scale != core.DefaultScale {
		return ""
	}
	return golden[workload][strconv.FormatUint(seed, 10)]
}
