package main

import (
	"fmt"
	"reflect"
	"strings"

	"ghostthread/internal/gov"
	"ghostthread/internal/harness"
	"ghostthread/internal/isa"
	"ghostthread/internal/sim"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// govWorkloads are the governed rows: camel's healthy ghosts, hj8's
// costly extraction, and the two compiler slices the governor rescues.
var govWorkloads = []string{"camel", "hj8", "bfs.kron", "cc.urand"}

// govWindow is the telemetry window W the governor decides on, as in
// ghostbench -experiment governor.
const govWindow = 20000

// govInput is one workload's inputs: the profiling instance, and the
// sync-traced manual and compiler instances the two kinds run on.
type govInput struct {
	name            string
	prof            *built
	manual          *built // nil when the workload has no manual ghost
	compiler        *built
	tfAddr, clAddr  int64 // governor-owned sync words in compiler's image
	manualRow, cRow *harness.GovRow
}

type governed struct {
	cfg    sim.Config
	inputs []*govInput
}

func (g *governed) setup(tr *tracer) {
	g.cfg = sim.DefaultConfig()
	g.inputs = g.inputs[:0]
	for _, name := range govWorkloads {
		b, err := workloads.Lookup(name)
		if err != nil {
			panic(err)
		}
		opts := workloads.DefaultOptions()
		opts.Sync.Trace = true
		in := &govInput{name: name, prof: build(tr, b, workloads.ProfileOptions())}
		if m := build(tr, b, opts); m.inst.Ghost != nil {
			in.manual = m
		}
		// The governor's dynamic sync words are appended and seeded with
		// the static thresholds before the snapshot, so every restore
		// re-arms them, as harness.GovernorExperiment does.
		id := tr.begin("workloads.build")
		c := b(opts)
		in.tfAddr = c.Mem.Grow(2)
		in.clAddr = in.tfAddr + 1
		c.Mem.StoreWord(in.tfAddr, opts.Sync.TooFar)
		c.Mem.StoreWord(in.clAddr, opts.Sync.Close)
		in.compiler = &built{inst: c, snap: c.Mem.Snapshot()}
		tr.end(id)
		g.inputs = append(g.inputs, in)
	}
}

// govOrder is the order a pass runs the rows in.
var govOrder = []struct {
	workload string
	compiler bool
}{
	{"cc.urand", true}, {"cc.urand", false}, {"hj8", true}, {"bfs.kron", true},
	{"bfs.kron", false}, {"hj8", false}, {"camel", false}, {"camel", true},
}

func (g *governed) units() []unit {
	byName := map[string]*govInput{}
	for _, in := range g.inputs {
		byName[in.name] = in
	}
	var us []unit
	for _, o := range govOrder {
		in := byName[o.workload]
		switch {
		case o.compiler:
			us = append(us, unit{name: "gov.row", run: func(w *worker) string {
				in.cRow = g.compilerRow(w, in)
				if in.cRow == nil {
					return in.name + " compiler: no targets"
				}
				return govString(in.cRow)
			}})
		case in.manual != nil:
			us = append(us, unit{name: "gov.row", run: func(w *worker) string {
				in.manualRow = g.manualRow(w, in)
				return govString(in.manualRow)
			}})
		}
	}
	return us
}

// manualRow runs the hand-written ghost static and governed against the
// no-helper baseline, all three on the sync-traced build.
func (g *governed) manualRow(w *worker, in *govInput) *harness.GovRow {
	row := &harness.GovRow{Workload: in.name, Kind: "manual"}
	inst, snap := in.manual.inst, in.manual.snap
	base, err := w.runChecked(g.cfg, inst.Mem, snap, inst.Baseline.Main, inst.Baseline.Helpers, inst.CheckFor("baseline"))
	if err != nil {
		row.Err = "baseline: " + err.Error()
		return row
	}
	static, err := w.runChecked(g.cfg, inst.Mem, snap, inst.Ghost.Main, inst.Ghost.Helpers, inst.CheckFor("ghost"))
	if err != nil {
		row.Err = "static: " + err.Error()
		return row
	}
	gcfg := harness.GovernedConfig(g.cfg, govWindow, inst.Counters)
	governed, err := w.runChecked(gcfg, inst.Mem, snap, inst.Ghost.Main, inst.Ghost.Helpers, inst.CheckFor("ghost"))
	if err != nil {
		row.Err = "governed: " + err.Error()
		return row
	}
	fillGov(w, row, base, static, governed)
	return row
}

// compilerRow profiles, selects, extracts the static compiler ghost and
// the per-phase one with dynamic sync, and runs both, the second under
// the governor with retuning and PC-synced respawns.
func (g *governed) compilerRow(w *worker, in *govInput) *harness.GovRow {
	row := &harness.GovRow{Workload: in.name, Kind: "compiler"}
	rep, err := w.profile(g.cfg, in.prof)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	inst, snap := in.compiler.inst, in.compiler.snap
	targets, _ := w.selectTargets(rep, inst)
	if len(targets) == 0 {
		return nil // no compiler ghost to govern: the experiment has no row
	}
	opts := workloads.DefaultOptions()
	opts.Sync.Trace = true

	base, err := w.runChecked(g.cfg, inst.Mem, snap, inst.Baseline.Main, inst.Baseline.Helpers, inst.CheckFor("baseline"))
	if err != nil {
		row.Err = "baseline: " + err.Error()
		return row
	}
	ext, err := w.extract(inst.Baseline.Main, targets, opts.Sync, inst.Counters, slice.Options{AllowUnproved: true})
	if err != nil {
		row.Err = "extraction: " + err.Error()
		return row
	}
	static, err := w.runChecked(g.cfg, inst.Mem, snap, ext.Main, []*isa.Program{ext.Ghost}, inst.Check)
	if err != nil {
		row.Err = "static: " + err.Error()
		return row
	}
	dopts := opts
	dopts.Sync.TooFarAddr = in.tfAddr
	dopts.Sync.CloseAddr = in.clAddr
	dext, err := w.extract(inst.Baseline.Main, targets, dopts.Sync, inst.Counters,
		slice.Options{AllowUnproved: true, PerPhase: true})
	if err != nil {
		row.Err = "dynamic extraction: " + err.Error()
		return row
	}
	gcfg := harness.GovernedConfig(g.cfg, govWindow, inst.Counters)
	gcfg.Governor.Retune = true
	gcfg.Governor.TooFarAddr = in.tfAddr
	gcfg.Governor.CloseAddr = in.clAddr
	gcfg.Governor.TooFarInit = opts.Sync.TooFar
	gcfg.Governor.CloseInit = opts.Sync.Close
	gcfg.Governor.ResyncPC = int64(dext.ResyncPC)
	gcfg.Governor.RevivePeriod = 1
	governed, err := w.runChecked(gcfg, inst.Mem, snap, dext.Main, []*isa.Program{dext.Ghost}, inst.Check)
	if err != nil {
		row.Err = "governed: " + err.Error()
		return row
	}
	fillGov(w, row, base, static, governed)
	return row
}

func fillGov(w *worker, r *harness.GovRow, base, static, governed sim.Result) {
	r.BaselineCycles = base.Cycles
	r.StaticCycles = static.Cycles
	r.GovernedCycles = governed.Cycles
	r.StaticSpeedup = float64(base.Cycles) / float64(static.Cycles)
	r.GovernedSpeedup = float64(base.Cycles) / float64(governed.Cycles)
	r.Kills = governed.GovKills
	r.Respawns = governed.GovRespawns
	for _, d := range governed.GovDecisions {
		if d.Action == gov.ActionRetune {
			r.Retunes++
		}
	}
	r.Decisions = governed.GovDecisions
	w.tal.Retunes += r.Retunes
}

func govString(r *harness.GovRow) string {
	return fmt.Sprintf("%+v", *r)
}

// speedups reports the geomean governed speedup of the manual rows as
// the ghost figure and of the compiler rows as the compiler figure.
func (g *governed) speedups() map[string]float64 {
	var m, c []float64
	for _, in := range g.inputs {
		if in.manualRow != nil {
			m = append(m, in.manualRow.GovernedSpeedup)
		}
		if in.cRow != nil {
			c = append(c, in.cRow.GovernedSpeedup)
		}
	}
	return map[string]float64{harness.TechGhost: harness.Geomean(m), harness.TechCompiler: harness.Geomean(c)}
}

func (g *governed) memWords() int64 {
	var n int64
	for _, in := range g.inputs {
		for _, b := range []*built{in.prof, in.manual, in.compiler} {
			if b != nil {
				n += b.inst.Mem.Size()
			}
		}
	}
	return n
}

// gate runs harness.GovernorExperiment on one workload and compares its
// rows with the benchmark's bit for bit.
func (g *governed) gate(seed int64) error {
	in := g.inputs[int(uint64(seed)%uint64(len(g.inputs)))]
	want := harness.GovernorExperiment([]string{in.name}, g.cfg, govWindow)
	var got []harness.GovRow
	for _, r := range []*harness.GovRow{in.manualRow, in.cRow} {
		if r != nil {
			got = append(got, *r)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("gate: %s differs from harness.GovernorExperiment:\n bench %+v\n exp   %+v", in.name, got, want)
	}
	return nil
}

func (g *governed) table() string {
	var b strings.Builder
	for _, in := range g.inputs {
		for _, r := range []*harness.GovRow{in.manualRow, in.cRow} {
			if r != nil {
				fmt.Fprintf(&b, "%-9s %-8s static %.3f governed %.3f kills %d respawns %d retunes %d %s\n",
					r.Workload, r.Kind, r.StaticSpeedup, r.GovernedSpeedup, r.Kills, r.Respawns, r.Retunes, r.Err)
			}
		}
	}
	return b.String()
}
