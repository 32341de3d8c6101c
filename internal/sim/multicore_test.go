package sim_test

// multicore_test.go — the multi-core stepping loop's cost and shape: a
// benchmark row for its throughput and a check that a run stays on the
// caller's goroutine.

import (
	"fmt"
	"runtime"
	"testing"

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
// PageRank and connected components on urand at evaluation scale, 2 and
// 4 cores, timing System.Run alone (the workload build is untimed) and
// reporting simulated cycles per host second.
//
//	go test ./internal/sim -run '^$' -bench SystemRunMultiCore -benchtime 3x
func BenchmarkSystemRunMultiCore(b *testing.B) {
	for _, kernel := range []string{"pr", "cc"} {
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
