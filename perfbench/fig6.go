package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"

	"ghostthread/internal/core"
	"ghostthread/internal/harness"
	"ghostthread/internal/isa"
	"ghostthread/internal/sim"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// fig6Rows is the part of figure 6 one pass evaluates: every GAP kernel
// on the road and web graphs (the two smallest evaluation inputs) plus
// the five HPC/database workloads, 16 of the 34 rows. The full matrix
// takes about 100 s on one thread of a 2-vCPU Xeon, more than one run's
// time box; this half (13.5 s) keeps every kernel family, both heuristic
// decisions and every row family whose compiler ghosts regressed to
// 0.5-0.8x (cc, bfs, sssp).
var fig6Rows = []string{
	"pr.web", "hj8", "sssp.web", "cc.web", "bc.web", "pr.road", "bc.road",
	"bfs.web", "sssp.road", "cc.road", "hj2", "bfs.road", "camel",
	"nas-is", "kangaroo", "tc.road",
}

// fig6Row is the benchmark's version of harness.Row: the fields the
// correctness gate compares bit for bit.
type fig6Row struct {
	Workload       string
	Decision       core.Decision
	Targets        int
	BaselineCycles int64
	Speedup        map[string]float64
	Unavailable    map[string]string
	SimCycles      int64
}

func (r *fig6Row) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s dec=%v targets=%d base=%d simcyc=%d", r.Workload, r.Decision, r.Targets, r.BaselineCycles, r.SimCycles)
	for _, tech := range harness.Techniques {
		if v, ok := r.Speedup[tech]; ok {
			fmt.Fprintf(&b, " %s=%x", tech, math.Float64bits(v))
		} else {
			fmt.Fprintf(&b, " %s=x(%s)", tech, r.Unavailable[tech])
		}
	}
	return b.String()
}

// fig6Input is one row's inputs: the profiling-scale and the
// evaluation-scale instance.
type fig6Input struct {
	name       string
	prof, eval *built
}

type fig6 struct {
	cfg    sim.Config
	inputs []*fig6Input
	rows   []*fig6Row // filled by each pass, in fig6Rows order
}

func (f *fig6) setup(tr *tracer) {
	f.cfg = sim.DefaultConfig()
	f.inputs = f.inputs[:0]
	for _, name := range fig6Rows {
		b, err := workloads.Lookup(name)
		if err != nil {
			panic(err)
		}
		f.inputs = append(f.inputs, &fig6Input{
			name: name,
			prof: build(tr, b, workloads.ProfileOptions()),
			eval: build(tr, b, workloads.DefaultOptions()),
		})
	}
	f.rows = make([]*fig6Row, len(f.inputs))
}

func (f *fig6) units() []unit {
	us := make([]unit, len(f.inputs))
	for i, in := range f.inputs {
		us[i] = unit{name: "fig6.row", run: func(w *worker) string {
			r := f.evalRow(w, in)
			f.rows[i] = r
			return r.String()
		}}
	}
	return us
}

// evalRow is harness.Eval on prebuilt inputs: profile, select, decide,
// then baseline / SWPF / SMT OpenMP / Ghost / compiler ghost, each run
// checked. It makes the same calls in the same order, so its row must
// equal Eval's bit for bit.
func (f *fig6) evalRow(w *worker, in *fig6Input) *fig6Row {
	cfg := f.cfg
	row := &fig6Row{Workload: in.name, Speedup: map[string]float64{}, Unavailable: map[string]string{}}
	rep, err := w.profile(cfg, in.prof)
	if err != nil {
		row.Unavailable["profile"] = err.Error()
		return row
	}
	inst, snap := in.eval.inst, in.eval.snap
	targets, decision := w.selectTargets(rep, inst)
	row.Decision, row.Targets, row.SimCycles = decision, len(targets), rep.TotalCycles

	runVariant := func(vname string) (sim.Result, error) {
		v := inst.VariantByName(vname)
		if v == nil {
			return sim.Result{}, fmt.Errorf("no %s variant", vname)
		}
		res, err := w.runChecked(cfg, inst.Mem, snap, v.Main, v.Helpers, inst.CheckFor(vname))
		if err != nil {
			return sim.Result{}, err
		}
		row.SimCycles += res.Cycles
		return res, nil
	}
	base, err := runVariant("baseline")
	if err != nil {
		row.Unavailable["baseline"] = err.Error()
		return row
	}
	row.BaselineCycles = base.Cycles
	record := func(tech string, res sim.Result, err error) {
		if err != nil {
			row.Unavailable[tech] = err.Error()
			return
		}
		row.Speedup[tech] = float64(base.Cycles) / float64(res.Cycles)
	}

	res, err := runVariant("swpf")
	record(harness.TechSWPF, res, err)
	if inst.Parallel == nil {
		row.Unavailable[harness.TechSMT] = "requires code rewriting"
	} else {
		res, err = runVariant("smt-openmp")
		record(harness.TechSMT, res, err)
	}

	switch decision {
	case core.UseGhost:
		if inst.Ghost != nil {
			err = w.plan(inst.Ghost.Helpers, inst.Counters)
		}
		if err != nil {
			err = fmt.Errorf("ghost plan: %w", err)
		} else {
			res, err = runVariant("ghost")
		}
	case core.UseParallel:
		res, err = runVariant("smt-openmp")
	default:
		res, err = base, nil
	}
	record(harness.TechGhost, res, err)

	switch {
	case len(targets) > 0:
		var ext *slice.Result
		ext, err = w.extract(inst.Baseline.Main, targets, workloads.DefaultOptions().Sync, inst.Counters,
			slice.Options{AllowUnproved: true})
		if err != nil {
			err = fmt.Errorf("extraction: %w", err)
		} else {
			res, err = w.runChecked(cfg, inst.Mem, snap, ext.Main, []*isa.Program{ext.Ghost}, inst.Check)
			if err == nil {
				row.SimCycles += res.Cycles
			}
		}
		record(harness.TechCompiler, res, err)
	case inst.Parallel != nil:
		res, err = runVariant("smt-openmp")
		record(harness.TechCompiler, res, err)
	default:
		record(harness.TechCompiler, base, nil)
	}
	return row
}

// speedups returns the per-technique geomeans over the pass's rows,
// counting an unavailable technique as 1.0 as the paper's geomeans do.
func (f *fig6) speedups() map[string]float64 {
	out := map[string]float64{}
	for _, tech := range harness.Techniques {
		var vals []float64
		for _, r := range f.rows {
			if v, ok := r.Speedup[tech]; ok {
				vals = append(vals, v)
			} else {
				vals = append(vals, 1.0)
			}
		}
		out[tech] = harness.Geomean(vals)
	}
	return out
}

func (f *fig6) memWords() int64 {
	var n int64
	for _, in := range f.inputs {
		n += in.prof.inst.Mem.Size() + in.eval.inst.Mem.Size()
	}
	return n
}

// gate re-evaluates one row through harness.Eval and compares it with
// the benchmark's row bit for bit, proving the benchmark measures the
// pipeline ghostbench reports.
func (f *fig6) gate(seed int64) error {
	r := f.rows[int(uint64(seed)%uint64(len(f.rows)))]
	want, err := harness.Eval(r.Workload, f.cfg, core.DefaultHeuristicParams())
	if err != nil {
		return fmt.Errorf("gate: harness.Eval(%s): %w", r.Workload, err)
	}
	got := fig6Row{Workload: want.Workload, Decision: want.Decision, Targets: want.Targets,
		BaselineCycles: want.BaselineCycles, Speedup: want.Speedup, Unavailable: want.Unavailable,
		SimCycles: want.SimCycles}
	if !reflect.DeepEqual(&got, r) {
		return fmt.Errorf("gate: %s differs from harness.Eval:\n bench %s\n eval  %s", r.Workload, r, &got)
	}
	return nil
}

// table renders the rows for the log.
func (f *fig6) table() string {
	var b strings.Builder
	rows := append([]*fig6Row(nil), f.rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s\n", "row", "swpf", "smt", "ghost", "compiler")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.Workload)
		for _, tech := range harness.Techniques {
			if v, ok := r.Speedup[tech]; ok {
				fmt.Fprintf(&b, " %8.3f", v)
			} else {
				fmt.Fprintf(&b, " %8s", "x")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
