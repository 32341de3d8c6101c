package main

import (
	"fmt"
	"reflect"
	"sort"

	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// ledgerRows are the named rows the fast-path ledger times: camel's
// flat loop and bfs.kron's frontier loop, manual ghost at eval scale.
var ledgerRows = []string{"camel", "bfs.kron"}

// ledgerReps is how many times each mode runs; the ledger reports the
// median of the per-repetition ratios.
const ledgerReps = 5

// ledger holds the fast-path ratios: each fast path's reference mode
// (or the observer) against the default run, with the Results equal.
type ledger struct {
	skipX       float64 // CycleStep on / off
	superblockX float64 // CPU.Interpret on / off
	obsOverhead float64 // telemetry on / off, minus one
}

// runLedger times every mode on every ledger row, interleaving modes so
// host drift hits them alike, and asserts each mode's sim.Result equals
// the default run's (telemetry's minus its window series).
func runLedger() (ledger, error) {
	type mode struct {
		name string
		cfg  func(sim.Config, *workloads.Instance) sim.Config
	}
	modes := []mode{
		{"default", func(c sim.Config, _ *workloads.Instance) sim.Config { return c }},
		{"cyclestep", func(c sim.Config, _ *workloads.Instance) sim.Config { c.CycleStep = true; return c }},
		{"interpret", func(c sim.Config, _ *workloads.Instance) sim.Config { c.CPU.Interpret = true; return c }},
		{"telemetry", func(c sim.Config, in *workloads.Instance) sim.Config {
			c.Telemetry.WindowCycles = govWindow
			c.Telemetry.GhostCounterAddr = in.Counters.GhostAddr
			return c
		}},
	}
	var rows []*built
	for _, name := range ledgerRows {
		b, err := workloads.Lookup(name)
		if err != nil {
			return ledger{}, err
		}
		rows = append(rows, build(&tracer{}, b, workloads.DefaultOptions()))
	}
	ratios := make([][]float64, len(modes))
	for rep := 0; rep < ledgerReps; rep++ {
		secs := make([]float64, len(modes))
		for _, r := range rows {
			var ref sim.Result
			for mi, m := range modes {
				r.inst.Mem.Restore(r.snap)
				cfg := m.cfg(sim.DefaultConfig(), r.inst)
				t0 := cpuNow()
				res, err := sim.RunProgram(cfg, r.inst.Mem, r.inst.Ghost.Main, r.inst.Ghost.Helpers)
				secs[mi] += (cpuNow() - t0).Seconds()
				if err == nil {
					err = r.inst.Check(r.inst.Mem)
				}
				if err != nil {
					return ledger{}, fmt.Errorf("ledger %s %s: %w", r.inst.Name, m.name, err)
				}
				res.Windows = nil
				if mi == 0 {
					ref = res
				} else if !reflect.DeepEqual(res, ref) {
					return ledger{}, fmt.Errorf("ledger %s: %s changed the sim.Result", r.inst.Name, m.name)
				}
			}
		}
		for mi := range modes {
			ratios[mi] = append(ratios[mi], secs[mi]/secs[0])
		}
	}
	return ledger{
		skipX:       median(ratios[1]),
		superblockX: median(ratios[2]),
		obsOverhead: median(ratios[3]) - 1,
	}, nil
}

// median returns the middle value (the mean of the middle two for an
// even count); vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted vals.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
