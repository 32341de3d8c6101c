package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"ghostthread/internal/analysis"
	"ghostthread/internal/cache"
	"ghostthread/internal/core"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/profile"
	"ghostthread/internal/sim"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// tally holds the deterministic counts of one pass. Every field is a pure
// function of the program and its inputs, so two passes of the same code
// must produce equal tallies, traced or not.
type tally struct {
	Attempted, Failed int // simulation runs (profiling included) and how many failed

	SimRuns                    int
	SimInstr, SimCycles        int64 // every run, profiling included
	MainCommitted, SerialStall int64 // non-profiling runs from here on
	RunCycles                  int64
	L1Misses, L2Misses         int64
	LLCMisses, DRAMTransfers   int64
	PF                         cache.PrefetchQuality
	DemandBeyondL1             int64

	ProfileRuns   int
	ProfileCycles int64

	Targets, GhostSelected int
	Extractions, Refused   int
	Verdicts, Proved       int
	Rematerialized         int

	Windows, PhaseBoundaries            int64
	Decisions, Kills, Respawns, Retunes int64

	Errors []string
}

// worker runs units one at a time. Every call into a layer goes through
// one of its methods, which opens that layer's span and counts its work.
type worker struct {
	tr  tracer
	tal tally
}

func (w *worker) fail(format string, args ...any) {
	w.tal.Failed++
	w.tal.Errors = append(w.tal.Errors, fmt.Sprintf(format, args...))
}

// restore resets a memory image to its pristine snapshot.
func (w *worker) restore(m *mem.Memory, snap []int64) {
	id := w.tr.begin("mem.restore")
	m.Restore(snap)
	w.tr.end(id)
}

// check validates a run's application results.
func (w *worker) check(fn func(*mem.Memory) error, m *mem.Memory) error {
	id := w.tr.begin("check.run")
	err := fn(m)
	w.tr.end(id)
	return err
}

// simulate runs a loaded machine and folds its Result into the tally.
// It does not count the attempt; the callers that also check do.
func (w *worker) simulate(s *sim.System, cores int) (sim.Result, error) {
	id := w.tr.begin("sim.run")
	res, err := s.Run()
	w.tr.endRun(id, res.Committed, cores)
	if err != nil {
		return res, err
	}
	t := &w.tal
	t.SimRuns++
	t.SimInstr += res.Committed
	t.SimCycles += res.Cycles
	t.MainCommitted += res.MainCommitted
	t.SerialStall += res.SerializeStall
	t.RunCycles += res.Cycles
	t.L1Misses += res.L1Misses
	t.L2Misses += res.L2Misses
	t.LLCMisses += res.LLCMisses
	t.DRAMTransfers += res.DRAMTransfers
	t.PF.Add(res.Prefetch)
	t.DemandBeyondL1 += res.LoadLevel[1] + res.LoadLevel[2] + res.LoadLevel[3]
	t.Windows += int64(len(res.Windows))
	for _, ws := range res.Windows {
		if ws.PhaseBoundary {
			t.PhaseBoundaries++
		}
	}
	t.Decisions += int64(len(res.GovDecisions))
	t.Kills += res.GovKills
	t.Respawns += res.GovRespawns
	return res, nil
}

// runChecked restores m, runs main+helpers on one core under cfg and
// validates the result: one attempted run.
func (w *worker) runChecked(cfg sim.Config, m *mem.Memory, snap []int64,
	main *isa.Program, helpers []*isa.Program, check func(*mem.Memory) error) (sim.Result, error) {
	w.tal.Attempted++
	w.restore(m, snap)
	s := sim.New(cfg, m)
	s.Load(0, main, helpers)
	res, err := w.simulate(s, 1)
	if err == nil {
		if cerr := w.check(check, m); cerr != nil {
			err = fmt.Errorf("result check: %w", cerr)
		}
	}
	if err != nil {
		w.fail("%s: %v", main.Name, err)
		return sim.Result{}, err
	}
	return res, nil
}

// profile runs the profiler over a profiling-scale instance and checks
// the profiling run's results, as the harness does: one attempted run.
func (w *worker) profile(cfg sim.Config, in *built) (*profile.Report, error) {
	w.tal.Attempted++
	w.restore(in.inst.Mem, in.snap)
	id := w.tr.begin("profile.run")
	rep, err := profile.Run(cfg, in.inst.Mem, in.inst.Baseline.Main, nil)
	w.tr.end(id)
	if err == nil {
		if cerr := w.check(in.inst.Check, in.inst.Mem); cerr != nil {
			err = fmt.Errorf("profiling run corrupted results: %w", cerr)
		}
	}
	if err != nil {
		w.fail("profile %s: %v", in.inst.Name, err)
		return nil, err
	}
	var instr int64
	for _, st := range rep.Instrs {
		instr += st.Executions
	}
	w.tal.ProfileRuns++
	w.tal.ProfileCycles += rep.TotalCycles
	w.tal.SimInstr += instr
	w.tal.SimCycles += rep.TotalCycles
	return rep, nil
}

// selectTargets applies the heuristic and the ghost-versus-OpenMP choice.
func (w *worker) selectTargets(rep *profile.Report, inst *workloads.Instance) ([]core.Target, core.Decision) {
	id := w.tr.begin("core.select")
	targets := core.SelectTargets(rep, core.DefaultHeuristicParams())
	decision := core.Decide(targets, inst.Ghost != nil, inst.Parallel != nil)
	w.tr.end(id)
	w.tal.Targets += len(targets)
	if decision == core.UseGhost {
		w.tal.GhostSelected++
	}
	return targets, decision
}

// plan runs the static safety plan a manual ghost must pass.
func (w *worker) plan(helpers []*isa.Program, ctr core.Counters) error {
	id := w.tr.begin("core.plan")
	_, err := core.Plan(helpers, ctr)
	w.tr.end(id)
	return err
}

// extract builds a compiler ghost, counting its translation-validation
// verdicts and rematerialized loads.
func (w *worker) extract(base *isa.Program, targets []core.Target, sp core.SyncParams,
	ctr core.Counters, opts slice.Options) (*slice.Result, error) {
	id := w.tr.begin("slice.extract")
	ext, err := slice.ExtractWith(base, targets, sp, ctr, opts)
	w.tr.end(id)
	if err != nil {
		w.tal.Refused++
		return nil, err
	}
	w.tal.Extractions++
	w.tal.Rematerialized += ext.Rematerialized
	for _, v := range ext.Verdicts {
		w.tal.Verdicts++
		if v.Status != analysis.Unproved {
			w.tal.Proved++
		}
	}
	return ext, nil
}

// built is one workload instance with its pristine memory image.
type built struct {
	inst *workloads.Instance
	snap []int64
}

// build constructs a workload instance inside a workloads.build span.
func build(tr *tracer, b workloads.Builder, opts workloads.Options) *built {
	id := tr.begin("workloads.build")
	inst := b(opts)
	snap := inst.Mem.Snapshot()
	tr.end(id)
	return &built{inst: inst, snap: snap}
}

// unit is one independent piece of a pass: a fig6 row, a multi-core run,
// a governed row. It returns its deterministic outcome, rendered.
type unit struct {
	name string
	run  func(w *worker) string
}

// passResult is one pass over a workload's units.
type passResult struct {
	wall    time.Duration
	cpu     time.Duration // process CPU time the pass took
	alloc   uint64        // bytes allocated on the Go heap during the pass
	busy    time.Duration // CPU time inside the units, measured outside the spans
	tally   tally
	outcome []string // per unit, in unit order
	tracer  *tracer
}

// runPass runs every unit once, in list order, on one worker.
func runPass(units []unit, traced bool) passResult {
	w := &worker{tr: tracer{on: traced}}
	out := make([]string, len(units))
	var busy time.Duration
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start, cpu0 := time.Now(), cpuNow()
	for i, u := range units {
		t0 := cpuNow()
		out[i] = w.runUnit(u)
		busy += cpuNow() - t0
	}
	res := passResult{wall: time.Since(start), cpu: cpuNow() - cpu0, busy: busy,
		tally: w.tal, outcome: out, tracer: &w.tr}
	runtime.ReadMemStats(&ms)
	res.alloc = ms.TotalAlloc - alloc0
	return res
}

// runUnit runs u inside its top-level span; a panic anywhere below counts
// as a failed run and is reported, never hidden.
func (w *worker) runUnit(u unit) (out string) {
	id := w.tr.begin(u.name)
	depth := len(w.tr.stack)
	defer func() {
		if r := recover(); r != nil {
			w.tal.Attempted++
			w.fail("%s: panic: %v\n%s", u.name, r, debug.Stack())
			out = "panic"
			for len(w.tr.stack) > depth {
				w.tr.end(w.tr.stack[len(w.tr.stack)-1])
			}
		}
		w.tr.end(id)
	}()
	return u.run(w)
}
