// Command perfbench is the repository benchmark. It drives the pipeline
// layer by layer, the way harness.Eval and harness.GovernorExperiment do,
// on one of three workloads, and prints its metrics as one JSON line:
//
//	perfbench --workload fig6-idle|fig9-multicore|governed --seed N --seconds S --trace 0|1
//
// With --trace 0 it builds the inputs seven times (setup_s is the
// median), then repeats untraced passes over the workload for about S
// seconds (as many as the first pass says fit) and reports the
// end-to-end metrics. With --trace 1 it runs one
// untraced and one traced pass, checks that they agree, and reports the
// per-layer metrics from the spans it recorded around each layer call.
// Inputs are fixed by the workload builders' own seeds; --seed chooses
// which row the correctness gate re-derives through the harness.
//
// It runs Go code on one thread (GOMAXPROCS 1, one worker) and times
// everything on the process CPU clock. On an idle host that clock reads
// what the wall clock does; unlike the wall clock, it stands still while
// the hypervisor or another process holds the CPU, so runs of the same
// code agree on a shared host.
// README.md gives the rationale, the layer table and the provenance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"ghostthread/internal/harness"
)

// workload is one of the benchmark's workloads.
type workload interface {
	// setup builds every input the workload's units read.
	setup(tr *tracer)
	// units lists one pass's work over the inputs setup built.
	units() []unit
	// speedups reports the geomean speedup per technique the workload
	// runs, keyed by harness technique name, from the last pass.
	speedups() map[string]float64
	// gate re-derives part of the last pass through the harness and
	// returns an error when the two differ.
	gate(seed int64) error
	memWords() int64
	table() string
}

func newWorkload(name string) workload {
	switch name {
	case "fig6-idle":
		return &fig6{}
	case "fig9-multicore":
		return &fig9{}
	case "governed":
		return &governed{}
	}
	return nil
}

// setupReps is how many times a --trace 0 run builds its inputs.
const setupReps = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "fig6-idle | fig9-multicore | governed")
	seed := flag.Int64("seed", 1, "selects the row the correctness gate re-derives")
	seconds := flag.Float64("seconds", 30, "how long the untraced passes run")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.Parse()
	runtime.GOMAXPROCS(1)
	wl := newWorkload(*name)
	if wl == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig6-idle|fig9-multicore|governed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%d go=%s GOMAXPROCS=%d nproc=%d\n",
		*name, *seed, *seconds, *traceFlag, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	var rep report
	var problems []string
	if *traceFlag == 0 {
		rep, problems = endToEnd(wl, *seed, *seconds)
	} else {
		rep, problems = perLayer(wl, *seed)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	rep.Correct = len(problems) == 0
	fmt.Fprint(os.Stderr, wl.table())
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd is a --trace 0 run.
func endToEnd(wl workload, seed int64, seconds float64) (report, []string) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // bill the previous inputs' collection to no one
		t0 := cpuNow()
		wl.setup(&tracer{})
		setups = append(setups, (cpuNow() - t0).Seconds())
	}
	units := wl.units()

	// As many passes as the first pass says fit the time box, at least
	// one. Fixing the count after one pass, rather than stopping when time
	// runs out, keeps a slow pass from also cutting the run's sample.
	passes := []passResult{runPass(units, false)}
	n := max(1, int(math.Round(seconds/passes[0].wall.Seconds())))
	for len(passes) < n {
		passes = append(passes, runPass(units, false))
	}
	peakRSS := maxRSSMB()

	var problems []string
	rep := report{Metrics: map[string]metric{}}
	var walls, cpus, allocs []float64
	for i, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		allocs = append(allocs, float64(p.alloc)/(1<<20))
		rep.Attempted += p.tally.Attempted
		rep.Failed += p.tally.Failed
		problems = append(problems, p.tally.Errors...)
		if i > 0 && !samePass(passes[0], p) {
			problems = append(problems, fmt.Sprintf("pass %d differs from pass 0: the simulation is not deterministic", i))
		}
	}
	if err := wl.gate(seed); err != nil {
		problems = append(problems, err.Error())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, walls %v, cpus %v, setups %v, peak RSS %.1f MiB\n",
		len(passes), walls, cpus, setups, peakRSS)

	cpu := median(cpus)
	t := passes[0].tally
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	put("cpu_s", "s", cpu)
	put("setup_s", "s", median(setups))
	put("sim_minstr_per_s", "Minstr/s", float64(t.SimInstr)/cpu/1e6)
	put("sim_mcycles_per_s", "Mcycles/s", float64(t.SimCycles)/cpu/1e6)
	put("alloc_mb", "MB", median(allocs))
	okFrac := 0.0
	if rep.Attempted > 0 {
		okFrac = 1 - float64(rep.Failed)/float64(rep.Attempted)
	}
	put("ok_frac", "frac", okFrac)

	sp := wl.speedups()
	for _, m := range []struct{ name, tech string }{
		{"swpf_speedup_x", harness.TechSWPF},
		{"smt_speedup_x", harness.TechSMT},
		{"ghost_speedup_x", harness.TechGhost},
		{"compiler_speedup_x", harness.TechCompiler},
	} {
		v, ok := sp[m.tech]
		if !ok {
			v = 1.0 // not run here: the paper's geomeans count it as the baseline
		}
		put(m.name, "x", v)
	}
	put("paper_gap_x", "x", paperGap(sp))
	return rep, problems
}

// paperGap is exp(mean |ln(simulated / paper)|) over the techniques the
// workload runs, against the paper's figure-6 idle-server geomeans: the
// typical factor by which a simulated geomean misses the paper's. It is
// 1 for a perfect match and never 0.
func paperGap(sp map[string]float64) float64 {
	var sum float64
	var n int
	for _, tech := range harness.Techniques { // fixed order: the sum is bit-reproducible
		if v, p := sp[tech], harness.PaperNumbers.Fig6Geomean[tech]; p > 0 && v > 0 {
			sum += math.Abs(math.Log(v / p))
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp(sum / float64(n))
}

// perLayer is a --trace 1 run.
func perLayer(wl workload, seed int64) (report, []string) {
	runtime.GC()
	str := &tracer{on: true}
	top := str.begin("setup")
	wl.setup(str)
	str.end(top)
	setupSum := summarize(str)
	units := wl.units()

	plain := runPass(units, false)
	traced := runPass(units, true)

	var problems []string
	problems = append(problems, plain.tally.Errors...)
	problems = append(problems, traced.tally.Errors...)
	if !samePass(plain, traced) {
		problems = append(problems, "the traced pass differs from the untraced one")
	}
	sum := summarize(traced.tracer)
	busy := traced.busy.Seconds()
	if self := sum.selfTotal(); math.Abs(self-busy) > 0.01*busy {
		problems = append(problems, fmt.Sprintf("span self times sum to %.4fs but the worker was busy %.4fs", self, busy))
	}
	led, err := runLedger()
	if err != nil {
		problems = append(problems, err.Error())
	}
	if err := wl.gate(seed); err != nil {
		problems = append(problems, err.Error())
	}

	rep := report{
		Attempted: plain.tally.Attempted + traced.tally.Attempted,
		Failed:    plain.tally.Failed + traced.tally.Failed,
		Metrics:   map[string]metric{},
	}
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	t := traced.tally
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nsPerInstr := func(cores int) float64 {
		acc := sum.runNsPerI[cores]
		return ratio(acc[0], acc[1])
	}
	var runNs, runInstr float64
	for _, acc := range sum.runNsPerI {
		runNs += acc[0]
		runInstr += acc[1]
	}

	put("workloads.build_s", "s", setupSum.self["workloads.build"])
	put("workloads.mem_words", "count", float64(wl.memWords()))

	put("profile.run_s", "s", sum.self["profile.run"])
	put("profile.runs", "count", float64(t.ProfileRuns))
	put("profile.sim_cycles", "count", float64(t.ProfileCycles))

	put("core.select_s", "s", sum.self["core.select"])
	put("core.plan_s", "s", sum.self["core.plan"])
	put("core.targets", "count", float64(t.Targets))
	put("core.ghost_selected", "count", float64(t.GhostSelected))

	put("slice.extract_s", "s", sum.self["slice.extract"])
	put("slice.extractions", "count", float64(t.Extractions))
	put("slice.refused", "count", float64(t.Refused))
	put("slice.proved_frac", "frac", ratio(float64(t.Proved), float64(t.Verdicts)))
	put("slice.rematerialized", "count", float64(t.Rematerialized))

	put("sim.run_s", "s", sum.self["sim.run"])
	put("sim.runs", "count", float64(t.SimRuns))
	put("sim.ns_per_instr", "ns", ratio(runNs, runInstr))
	put("sim.run_p50_ms", "ms", percentile(sum.runMs, 50))
	put("sim.run_p90_ms", "ms", percentile(sum.runMs, 90))
	put("sim.ns_per_instr.2c", "ns", nsPerInstr(2))
	put("sim.ns_per_instr.4c", "ns", nsPerInstr(4))
	put("sim.fastpath.skip_x", "x", led.skipX)
	put("sim.fastpath.superblock_x", "x", led.superblockX)

	put("cpu.ipc_main", "instr/cycle", ratio(float64(t.MainCommitted), float64(t.RunCycles)))
	put("cpu.serialize_stall_frac", "frac", ratio(float64(t.SerialStall), float64(t.RunCycles)))
	put("cache.l1_misses", "count", float64(t.L1Misses))
	put("cache.l2_misses", "count", float64(t.L2Misses))
	put("cache.llc_misses", "count", float64(t.LLCMisses))
	put("mem.dram_transfers", "count", float64(t.DRAMTransfers))
	put("cache.pf_issued", "count", float64(t.PF.Issued))
	put("cache.pf_accuracy", "frac", t.PF.Accuracy())
	useful := float64(t.PF.Useful())
	put("cache.pf_coverage", "frac", ratio(useful, useful+float64(t.DemandBeyondL1)))
	put("cache.pf_timeliness", "frac", t.PF.Timeliness())

	put("obs.windows", "count", float64(t.Windows))
	put("obs.phase_boundaries", "count", float64(t.PhaseBoundaries))
	put("obs.overhead_frac", "frac", led.obsOverhead)

	put("gov.decisions", "count", float64(t.Decisions))
	put("gov.kills", "count", float64(t.Kills))
	put("gov.respawns", "count", float64(t.Respawns))
	put("gov.retunes", "count", float64(t.Retunes))

	put("check.run_s", "s", sum.self["check.run"])
	put("check.failed", "count", float64(t.Failed))
	put("mem.restore_s", "s", sum.self["mem.restore"])

	put("trace.busy_s", "s", busy)
	put("trace.glue_s", "s", sum.unitSelf)
	put("trace.overhead_frac", "frac", traced.cpu.Seconds()/plain.cpu.Seconds()-1)
	fmt.Fprintf(os.Stderr, "perfbench: untraced pass %.3fs CPU (%.3fs wall), traced pass %.3fs CPU (%.3fs wall)\n",
		plain.cpu.Seconds(), plain.wall.Seconds(), traced.cpu.Seconds(), traced.wall.Seconds())
	return rep, problems
}

// samePass reports whether two passes produced identical deterministic
// outcomes: every unit's rendered result and every count.
func samePass(a, b passResult) bool {
	return reflect.DeepEqual(a.outcome, b.outcome) && reflect.DeepEqual(a.tally, b.tally)
}

// cpuNow reads the process CPU clock (CLOCK_PROCESS_CPUTIME_ID): the
// CPU time all the process's threads have used so far. A thread is
// charged only while it runs, and the kernel leaves out time the
// hypervisor gave to other guests, so the clock stands still while the
// host or another process holds the CPU.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// maxRSSMB is the process's peak resident set so far, in MiB. It is
// logged, not reported: it swings by a fifth between identical runs with
// where the collector happens to run during hj8's allocation burst.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
