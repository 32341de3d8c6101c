package sim_test

// multicore_test.go — the multi-core stepping loop's cost and shape: a
// benchmark row for its throughput, a check that a run stays on the
// caller's goroutine, and the per-core next-event loop's work and
// catch-up points.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"ghostthread/internal/fault"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// loadMulti builds kernel on graph at cores under MultiGhost and loads it
// onto a fresh machine whose config is cfg with the core count filled in.
func loadMulti(tb testing.TB, kernel, graph string, cores int, opts workloads.Options, cfg sim.Config) (*sim.System, *workloads.MultiInstance) {
	tb.Helper()
	inst, err := workloads.NewMulti(kernel, graph, cores, workloads.MultiGhost, opts)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Cores = inst.Cores
	s := sim.New(cfg, inst.Mem)
	for c := range inst.Per {
		s.Load(c, inst.Per[c].Main, inst.Per[c].Helpers)
	}
	return s, inst
}

// BenchmarkSystemRunMultiCore is the multi-core throughput row: MultiGhost
// PageRank, connected components and BFS on urand at evaluation scale
// (figure 9's kernels), 2 and 4 cores, timing System.Run alone (the
// workload build is untimed) and reporting simulated cycles per host
// second.
//
//	go test ./internal/sim -run '^$' -bench SystemRunMultiCore -benchtime 3x
func BenchmarkSystemRunMultiCore(b *testing.B) {
	for _, kernel := range []string{"pr", "cc", "bfs"} {
		for _, cores := range []int{2, 4} {
			b.Run(fmt.Sprintf("%s.urand/%dc", kernel, cores), func(b *testing.B) {
				var cycles int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, inst := loadMulti(b, kernel, "urand", cores, workloads.DefaultOptions(), sim.DefaultConfig())
					b.StartTimer()
					res, err := s.Run()
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if err := inst.Check(inst.Mem); err != nil {
						b.Fatal(err)
					}
					cycles += res.Cycles
					b.StartTimer()
				}
				b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
			})
		}
	}
}

// TestMultiCoreRunStartsNoGoroutines: a 4-core run steps its cores on the
// caller's goroutine. The goroutine count read from inside the run (the
// Sampler fires on Run's goroutine) must equal the count before Run.
func TestMultiCoreRunStartsNoGoroutines(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.SampleEvery = 1_000
	var samples int
	var during []int
	cfg.Sampler = func(int64) {
		samples++
		if n := runtime.NumGoroutine(); len(during) == 0 || n != during[len(during)-1] {
			during = append(during, n)
		}
	}
	s, inst := loadMulti(t, "pr", "kron", 4, workloads.ProfileOptions(), cfg)
	before := runtime.NumGoroutine()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(inst.Mem); err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("sampler never fired; test proves nothing")
	}
	for _, n := range during {
		if n != before {
			t.Fatalf("goroutine counts during Run %v, want %d throughout (the count before Run)", during, before)
		}
	}
}

// TestDueOnlyStepping: the run loop steps a core only at the cycles it is
// due. The machine-wide loop it replaced stepped every unfinished core
// whenever any core had work; that loop is re-enacted here over the
// public Core API on a second machine, which must end in the same
// per-core state. On 4-core MultiGhost PageRank on urand the due-only
// loop must take at most half the core steps the machine-wide loop's
// cycles span (5.7M against 4 × 3.4M). The run is at evaluation scale:
// at profile scale the cores overlap more and the ratio is 0.60.
func TestDueOnlyStepping(t *testing.T) {
	s, inst := loadMulti(t, "pr", "urand", 4, workloads.DefaultOptions(), sim.DefaultConfig())
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(inst.Mem); err != nil {
		t.Fatal(err)
	}
	ref, refInst := loadMulti(t, "pr", "urand", 4, workloads.DefaultOptions(), sim.DefaultConfig())
	cycles := machineWideRun(ref)
	if err := refInst.Check(refInst.Mem); err != nil {
		t.Fatal(err)
	}
	var steps int64
	for i := 0; i < s.Cores(); i++ {
		steps += s.Core(i).Steps()
		if got, want := s.Core(i).Stats(), ref.Core(i).Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("core %d: due-only stepping ended in\n %+v\nthe machine-wide loop in\n %+v", i, got, want)
		}
	}
	bound := int64(s.Cores()) * cycles / 2
	t.Logf("%d core steps; the machine-wide loop stepped %d cycles (bound %d)", steps, cycles, bound)
	if steps > bound {
		t.Errorf("%d core steps, want at most %d (half of %d cores × %d machine-wide cycles)",
			steps, bound, s.Cores(), cycles)
	}
}

// machineWideRun drives s the way the machine-wide loop did: step every
// unfinished core, then skip every core to just before the earliest next
// event. It returns how many cycles it stepped.
func machineWideRun(s *sim.System) int64 {
	var now, stepped int64
	for {
		allDone := true
		for i := 0; i < s.Cores(); i++ {
			if c := s.Core(i); !c.Done() {
				allDone = false
				c.Step()
			}
		}
		now++
		stepped++
		if allDone {
			return stepped
		}
		next := int64(math.MaxInt64)
		for i := 0; i < s.Cores(); i++ {
			if c := s.Core(i); !c.Done() {
				next = min(next, c.NextEvent())
			}
		}
		if next != math.MaxInt64 && next-1 > now {
			for i := 0; i < s.Cores(); i++ {
				if c := s.Core(i); !c.Done() {
					c.SkipTo(next - 1)
				}
			}
			now = next - 1
		}
	}
}

// TestSkipEquivalenceMultiCoreObserved runs the 4-core machine with every
// point at which a lagging core must be brought current: a sampler that
// reads each core's clock and commit count, telemetry windows and a fault
// schedule. The per-core next-event loop and the per-cycle reference must
// agree on the Result (windows included), on the sampler's cycles and
// readings, and on the final memory image.
func TestSkipEquivalenceMultiCoreObserved(t *testing.T) {
	type sample struct {
		now       int64
		clocks    [4]int64
		committed [4]int64
	}
	run := func(cycleStep bool) (sim.Result, []sample, []int64) {
		inst, err := workloads.NewMulti("pr", "kron", 4, workloads.MultiGhost, workloads.ProfileOptions())
		if err != nil {
			t.Fatal(err)
		}
		var s *sim.System
		var samples []sample
		cfg := sim.DefaultConfig()
		cfg.Cores = inst.Cores
		cfg.CycleStep = cycleStep
		cfg.SampleEvery = 700
		cfg.Sampler = func(now int64) {
			sm := sample{now: now}
			for i := range sm.clocks {
				sm.clocks[i] = s.Core(i).Now()
				sm.committed[i] = s.Core(i).Committed(0) + s.Core(i).Committed(1)
			}
			samples = append(samples, sm)
		}
		cfg.Telemetry.WindowCycles = 5_000
		cfg.Fault = combinedSchedule()
		s = sim.New(cfg, inst.Mem)
		for c := range inst.Per {
			s.Load(c, inst.Per[c].Main, inst.Per[c].Helpers)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("cycleStep=%v: %v", cycleStep, err)
		}
		if err := inst.Check(inst.Mem); err != nil {
			t.Fatalf("cycleStep=%v: check: %v", cycleStep, err)
		}
		return res, samples, snapshot(inst.Mem)
	}
	refRes, refSamples, refMem := run(true)
	res, samples, img := run(false)
	if len(refRes.Windows) == 0 || len(refSamples) == 0 || refRes.Fault == (fault.Stats{}) {
		t.Fatalf("observers idle (%d windows, %d samples, faults %+v); the test proves nothing",
			len(refRes.Windows), len(refSamples), refRes.Fault)
	}
	assertEqualResults(t, "pr.kron multighost(observed)", "4 cores", refRes, res)
	if !reflect.DeepEqual(refSamples, samples) {
		t.Errorf("sampler calls diverged: per-cycle %d calls, next-event %d", len(refSamples), len(samples))
	}
	if !reflect.DeepEqual(refMem, img) {
		t.Error("final memory image diverged between per-cycle and next-event stepping")
	}
}
