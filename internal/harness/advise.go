package harness

// advise.go — the validation experiment for the static advice layer
// (`ghostbench -experiment advise`). The cost model in internal/analysis
// predicts, per workload, whether a ghost thread is worth running; this
// experiment closes the loop by measuring the actual ghost speedup in
// the simulator and reporting how often the static call matches the
// measured best choice, plus the rank correlation between the predicted
// benefit score and the measured speedup.

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ghostthread/internal/analysis"
	"ghostthread/internal/lint"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// AdviseSpeedupThreshold separates "ghost helped" from "ghost was a
// wash": measured speedups within 2% of baseline count as no-help, so
// run-to-run-level noise does not flip the measured label.
const AdviseSpeedupThreshold = 1.02

// AdviseRow joins one workload's static advice with its measured ghost
// outcome.
type AdviseRow struct {
	Workload string `json:"workload"`

	// Static side: the best target's class, the predicted benefit score
	// and the ghost / smt-openmp / none recommendation.
	Class     string  `json:"class,omitempty"`
	Targets   int     `json:"targets"`
	Score     float64 `json:"score"`
	Recommend string  `json:"recommend"`

	// Verdict is the translation validator's status for the workload's
	// manual ghost helpers (gtverify): PROVED / PROVED-MODULO-SYNC /
	// UNPROVED, or "no-ghost" when no hand-written ghost exists.
	Verdict string `json:"verdict,omitempty"`

	// Measured side: which ghost program was run ("manual" when the
	// workload ships a hand-written ghost variant, "compiler" when one is
	// extracted from the annotated baseline, "none" when neither exists),
	// and its speedup over the measured baseline.
	GhostKind      string  `json:"ghost_kind"`
	BaselineCycles int64   `json:"baseline_cycles"`
	GhostCycles    int64   `json:"ghost_cycles,omitempty"`
	GhostSpeedup   float64 `json:"ghost_speedup,omitempty"`

	// The binary join: does the static ghost/no-ghost call match the
	// measured best choice?
	StaticGhost   bool   `json:"static_ghost"`
	MeasuredGhost bool   `json:"measured_ghost"`
	Agree         bool   `json:"agree"`
	Err           string `json:"error,omitempty"`
}

// AdviseSummary is the full agreement table plus the headline numbers.
type AdviseSummary struct {
	Rows        []AdviseRow `json:"rows"`
	Workloads   int         `json:"workloads"`
	Agreements  int         `json:"agreements"`
	Accuracy    float64     `json:"accuracy"`
	SpearmanRho float64     `json:"spearman_rho"`
	Threshold   float64     `json:"speedup_threshold"`
}

// Advise runs the validation experiment over the named workloads: the
// static advice passes on the evaluation-scale instance, a measured
// baseline run, and a measured ghost run (the manual ghost variant when
// one exists, otherwise a compiler-extracted ghost from the annotated
// targets). sink, when non-nil, receives each row as it completes.
func Advise(names []string, cfg sim.Config, workers int, sink func(AdviseRow)) (*AdviseSummary, error) {
	rows := make([]AdviseRow, len(names))
	var sinkMu sync.Mutex
	forEachIndex(len(names), workers, func(i int) {
		rows[i] = adviseOne(names[i], cfg)
		if sink != nil {
			sinkMu.Lock()
			sink(rows[i])
			sinkMu.Unlock()
		}
	})

	sum := &AdviseSummary{Rows: rows, Workloads: len(rows), Threshold: AdviseSpeedupThreshold}
	var scores, speedups []float64
	for _, r := range rows {
		if r.Err != "" {
			continue
		}
		if r.Agree {
			sum.Agreements++
		}
		if r.GhostKind != "none" {
			scores = append(scores, r.Score)
			speedups = append(speedups, r.GhostSpeedup)
		}
	}
	if sum.Workloads > 0 {
		sum.Accuracy = float64(sum.Agreements) / float64(sum.Workloads)
	}
	sum.SpearmanRho = Spearman(scores, speedups)
	return sum, nil
}

// adviseOne produces a single joined row. Errors are recorded on the
// row (not returned): one broken workload should not kill the sweep.
func adviseOne(name string, cfg sim.Config) AdviseRow {
	row := AdviseRow{Workload: name, GhostKind: "none"}

	adv, err := lint.Advise(name, lint.Options{Scale: workloads.ScaleEval}, analysis.DefaultCostParams())
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Targets = len(adv.Targets)
	row.Score = adv.Score
	row.Recommend = adv.Recommend
	row.StaticGhost = adv.Recommend == lint.RecGhost

	// Translation-validation verdict for the manual ghost (static only;
	// profile scale is representative and cheap).
	switch wv, err := lint.Verify(name, lint.VerifyOptions{}); {
	case err != nil:
		row.Verdict = "err: " + err.Error()
	case wv.NoGhost:
		row.Verdict = "no-ghost"
	default:
		row.Verdict = wv.Status.String()
	}
	best := 0.0
	for _, t := range adv.Targets {
		if t.Benefit >= best {
			best = t.Benefit
			row.Class = t.Class
		}
	}

	build, err := workloads.Lookup(name)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	opts := workloads.DefaultOptions()

	// Measured baseline. One instance serves the baseline and ghost runs:
	// the memory image is snapshotted pristine and restored between runs.
	inst := build(opts)
	snap := inst.Mem.Snapshot()
	base, err := sim.RunProgram(cfg, inst.Mem, inst.Baseline.Main, inst.Baseline.Helpers)
	if err == nil {
		err = inst.Check(inst.Mem)
	}
	if err != nil {
		row.Err = fmt.Sprintf("baseline: %v", err)
		return row
	}
	row.BaselineCycles = base.Cycles

	// Measured ghost: prefer the hand-written variant, fall back to a
	// compiler extraction from the statically annotated targets.
	var ghost sim.Result
	switch {
	case inst.Ghost != nil:
		row.GhostKind = "manual"
		inst.Mem.Restore(snap)
		ghost, err = sim.RunProgram(cfg, inst.Mem, inst.Ghost.Main, inst.Ghost.Helpers)
		if err == nil {
			err = inst.CheckFor("ghost")(inst.Mem)
		}
	default:
		targets := lint.StaticTargets(inst.Baseline.Main)
		if len(targets) == 0 {
			// No ghost program to measure: the measured best choice is
			// trivially "no ghost".
			row.Agree = !row.StaticGhost
			return row
		}
		row.GhostKind = "compiler"
		ghost, err = runCompilerGhost(inst, snap, opts, targets, cfg)
	}
	if err != nil {
		// A ghost that cannot even run (extraction failure, check
		// failure) is a measured "no ghost".
		row.GhostKind += " (failed)"
		row.Agree = !row.StaticGhost
		return row
	}
	row.GhostCycles = ghost.Cycles
	row.GhostSpeedup = float64(base.Cycles) / float64(ghost.Cycles)
	row.MeasuredGhost = row.GhostSpeedup > AdviseSpeedupThreshold
	row.Agree = row.StaticGhost == row.MeasuredGhost
	return row
}

// Spearman returns the rank correlation coefficient of the two
// same-length samples (average ranks on ties), or 0 when fewer than two
// points are available.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	rx, ry := ranks(xs), ranks(ys)
	var mx, my float64
	for i := range rx {
		mx += rx[i]
		my += ry[i]
	}
	mx /= float64(len(rx))
	my /= float64(len(ry))
	var num, dx, dy float64
	for i := range rx {
		a, b := rx[i]-mx, ry[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

// ranks assigns 1-based ranks, averaging over ties.
func ranks(vals []float64) []float64 {
	ord := make([]int, len(vals))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(i, j int) bool { return vals[ord[i]] < vals[ord[j]] })
	out := make([]float64, len(vals))
	for i := 0; i < len(ord); {
		j := i
		for j < len(ord) && vals[ord[j]] == vals[ord[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // mean of 1-based ranks i+1 .. j
		for k := i; k < j; k++ {
			out[ord[k]] = avg
		}
		i = j
	}
	return out
}

// RenderAdvise formats the agreement table.
func RenderAdvise(sum *AdviseSummary) string {
	out := fmt.Sprintf("%-14s %-14s %-10s %8s %-10s %9s %-19s  %s\n",
		"workload", "class", "static", "score", "ghost", "speedup", "verdict", "agree")
	for _, r := range sum.Rows {
		mark := "yes"
		if !r.Agree {
			mark = "NO"
		}
		if r.Err != "" {
			mark = "err: " + r.Err
		}
		out += fmt.Sprintf("%-14s %-14s %-10s %8.3f %-10s %9.3f %-19s  %s\n",
			r.Workload, r.Class, r.Recommend, r.Score, r.GhostKind, r.GhostSpeedup, r.Verdict, mark)
	}
	out += fmt.Sprintf("agreement: %d/%d (%.0f%%), spearman rho %.2f, threshold %.2fx\n",
		sum.Agreements, sum.Workloads, 100*sum.Accuracy, sum.SpearmanRho, sum.Threshold)
	return out
}
