package sim_test

// modes_test.go — the execution-mode equivalence suite. The simulator
// has two independent speed axes, each with a reference setting:
//
//   - superblock dispatch      vs  cpu.Config.Interpret (per-instruction)
//   - event-skip fast-forward  vs  sim.Config.CycleStep (per-cycle)
//
// Every combination must produce a bit-identical sim.Result (and final
// memory image), on one core and on four, alone and composed with fault
// injection and the shadow oracle.

import (
	"errors"
	"reflect"
	"testing"

	"ghostthread/internal/cpu"
	"ghostthread/internal/fault"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// stepModes is the {Interpret} × {CycleStep} grid; the first entry is
// the all-fast-paths configuration the experiments run.
var stepModes = []struct {
	name      string
	interpret bool
	cycleStep bool
}{
	{"superblock/skip", false, false},
	{"superblock/cycle", false, true},
	{"interpret/skip", true, false},
	{"interpret/cycle", true, true},
}

// runMode builds a fresh instance of workload/variant and runs it with
// the given mode knobs applied on top of base, returning the Result and
// the final memory image.
func runMode(t *testing.T, workload, variant string, base sim.Config, interpret, cycleStep bool) (sim.Result, []int64) {
	t.Helper()
	build, err := workloads.Lookup(workload)
	if err != nil {
		t.Fatal(err)
	}
	inst := build(workloads.ProfileOptions())
	v := inst.VariantByName(variant)
	if v == nil {
		t.Fatalf("%s has no %s variant", workload, variant)
	}
	cfg := base
	cfg.CPU.Interpret = interpret
	cfg.CycleStep = cycleStep
	res, err := sim.RunProgram(cfg, inst.Mem, v.Main, v.Helpers)
	if err != nil {
		t.Fatalf("%s/%s (interpret=%v cycleStep=%v): %v", workload, variant, interpret, cycleStep, err)
	}
	if err := inst.CheckFor(variant)(inst.Mem); err != nil {
		t.Fatalf("%s/%s (interpret=%v cycleStep=%v): check: %v", workload, variant, interpret, cycleStep, err)
	}
	return res, snapshot(inst.Mem)
}

// assertMode compares a mode run against the reference run of the same
// workload.
func assertMode(t *testing.T, label, mode string, refRes, res sim.Result, refMem, m []int64) {
	t.Helper()
	if !reflect.DeepEqual(refRes, res) {
		t.Errorf("%s: %s Result diverged from reference\n ref: %+v\n got: %+v", label, mode, refRes, res)
	}
	if !reflect.DeepEqual(refMem, m) {
		t.Errorf("%s: %s final memory image diverged from reference", label, mode)
	}
}

// TestModeEquivalenceSingleCore proves the dispatch × stepping grid on
// the representative single-core slice.
func TestModeEquivalenceSingleCore(t *testing.T) {
	for _, wl := range []struct{ workload, variant string }{
		{"camel", "ghost"},
		{"bfs.kron", "ghost"},
		{"hj8", "ghost"},
	} {
		refRes, refMem := runMode(t, wl.workload, wl.variant, sim.DefaultConfig(), false, false)
		for _, m := range stepModes[1:] {
			res, img := runMode(t, wl.workload, wl.variant, sim.DefaultConfig(), m.interpret, m.cycleStep)
			assertMode(t, wl.workload+"/"+wl.variant, m.name, refRes, res, refMem, img)
		}
	}
}

// TestModeEquivalenceComposed re-proves the grid with fault injection
// and the shadow oracle enabled at once: the mode axes must not perturb
// the fault draw schedule or the oracle's classification.
func TestModeEquivalenceComposed(t *testing.T) {
	base := sim.DefaultConfig()
	base.Fault = combinedSchedule()
	base.Shadow.Enabled = true
	refRes, refMem := runMode(t, "camel", "ghost", base, false, false)
	if refRes.Fault == (fault.Stats{}) {
		t.Fatal("fault schedule injected nothing; composition proves nothing")
	}
	for _, m := range stepModes[1:] {
		res, img := runMode(t, "camel", "ghost", base, m.interpret, m.cycleStep)
		assertMode(t, "camel/ghost(faulted+shadowed)", m.name, refRes, res, refMem, img)
	}
}

// runMultiMode builds a fresh MultiGhost PageRank machine and runs it
// with the given mode knobs, returning the Result and the memory image.
func runMultiMode(t *testing.T, base sim.Config, interpret, cycleStep bool) (sim.Result, []int64) {
	t.Helper()
	inst, err := workloads.NewMulti("pr", "kron", 4, workloads.MultiGhost, workloads.ProfileOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Cores = inst.Cores
	cfg.CPU.Interpret = interpret
	cfg.CycleStep = cycleStep
	s := sim.New(cfg, inst.Mem)
	for c := range inst.Per {
		s.Load(c, inst.Per[c].Main, inst.Per[c].Helpers)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("pr.kron multighost (interpret=%v cycleStep=%v): %v", interpret, cycleStep, err)
	}
	if err := inst.Check(inst.Mem); err != nil {
		t.Fatalf("pr.kron multighost (interpret=%v cycleStep=%v): check: %v", interpret, cycleStep, err)
	}
	return res, snapshot(inst.Mem)
}

// TestModeEquivalenceMultiGhostPR proves the {Interpret} × {CycleStep}
// square on a 4-core MultiGhost PageRank run, where the cores contend
// for the shared LLC, memory controller, and memory image. The reference
// corner is the interpreted, per-cycle machine — every fast path
// disabled.
func TestModeEquivalenceMultiGhostPR(t *testing.T) {
	ref := stepModes[len(stepModes)-1]
	refRes, refMem := runMultiMode(t, sim.DefaultConfig(), ref.interpret, ref.cycleStep)
	for _, m := range stepModes[:len(stepModes)-1] {
		res, img := runMultiMode(t, sim.DefaultConfig(), m.interpret, m.cycleStep)
		assertMode(t, "pr.kron/multighost", m.name, refRes, res, refMem, img)
	}
}

// TestModeEquivalenceMultiCoreComposed runs the 4-core machine with
// fault injection and the shadow oracle live — the strongest composition
// it supports — and compares the default (superblock, event-skip) run
// against the interpreted, per-cycle reference.
func TestModeEquivalenceMultiCoreComposed(t *testing.T) {
	base := sim.DefaultConfig()
	base.Fault = combinedSchedule()
	base.Shadow.Enabled = true
	refRes, refMem := runMultiMode(t, base, true, true)
	if refRes.Fault == (fault.Stats{}) {
		t.Fatal("fault schedule injected nothing; composition proves nothing")
	}
	res, img := runMultiMode(t, base, false, false)
	assertMode(t, "pr.kron/multighost(faulted+shadowed)", stepModes[0].name, refRes, res, refMem, img)
}

// TestBudgetErrorMultiCore: a 4-core run that exhausts MaxCycles must
// trip the watchdog at the same cycle, in the same machine state, under
// event skipping as under per-cycle stepping — the skipper is capped
// below MaxCycles, so it can neither overshoot the budget nor stop short.
// The limits fall in the run's miss-bound start-up, where skip spans
// cross them (a skipper capped at MaxCycles instead of MaxCycles-1
// fails every one).
func TestBudgetErrorMultiCore(t *testing.T) {
	for _, limit := range []int64{7_500, 9_000, 11_000} {
		budgetTripMultiCore(t, limit)
	}
}

func budgetTripMultiCore(t *testing.T, limit int64) {
	t.Helper()
	type state struct {
		now   []int64
		stats []cpu.Stats
		mem   []int64
	}
	run := func(cycleStep bool) state {
		inst, err := workloads.NewMulti("pr", "kron", 4, workloads.MultiGhost, workloads.ProfileOptions())
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.Cores = inst.Cores
		cfg.MaxCycles = limit
		cfg.CycleStep = cycleStep
		s := sim.New(cfg, inst.Mem)
		for c := range inst.Per {
			s.Load(c, inst.Per[c].Main, inst.Per[c].Helpers)
		}
		var be *sim.BudgetError
		if _, err := s.Run(); !errors.As(err, &be) || be.Limit != limit {
			t.Fatalf("limit %d cycleStep=%v: err = %v, want *sim.BudgetError", limit, cycleStep, err)
		}
		var st state
		for i := 0; i < s.Cores(); i++ {
			c := s.Core(i)
			if c.Done() {
				t.Fatalf("limit %d cycleStep=%v: core %d finished inside the budget", limit, cycleStep, i)
			}
			st.now = append(st.now, c.Now())
			st.stats = append(st.stats, c.Stats())
		}
		st.mem = snapshot(inst.Mem)
		return st
	}
	ref, skip := run(true), run(false)
	for i, now := range ref.now {
		if now != limit {
			t.Errorf("limit %d: core %d tripped at cycle %d under per-cycle stepping", limit, i, now)
		}
	}
	if !reflect.DeepEqual(ref.now, skip.now) {
		t.Errorf("limit %d: trip cycles differ: per-cycle %v, skip %v", limit, ref.now, skip.now)
	}
	if !reflect.DeepEqual(ref.stats, skip.stats) {
		t.Errorf("limit %d: per-core statistics at the trip differ between per-cycle and skip stepping", limit)
	}
	if !reflect.DeepEqual(ref.mem, skip.mem) {
		t.Errorf("limit %d: memory image at the trip differs between per-cycle and skip stepping", limit)
	}
}
