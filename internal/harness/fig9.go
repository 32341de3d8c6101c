package harness

import (
	"fmt"
	"strings"
	"sync"

	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// Fig9CoreCounts are the physical core counts figure 9 sweeps.
var Fig9CoreCounts = []int{1, 2, 4}

// Fig9Result holds geomean speedups over the parallel baseline at each
// core count, plus the "no omp" single-threaded column.
type Fig9Result struct {
	// Geomean[tech][cores] is the geomean speedup over the same-core-count
	// parallel baseline.
	Geomean map[string]map[int]float64
	// NoOmp is the single-threaded Ghost Threading geomean (the paper's
	// "no omp" column).
	NoOmp float64
	// Workloads lists the kernel.graph set evaluated.
	Workloads []string
}

// fig9Workloads returns the kernel.graph pairs with multi-core variants.
func fig9Workloads() [][2]string {
	var out [][2]string
	for _, k := range workloads.MultiKernels {
		for _, gn := range workloads.GraphNames {
			out = append(out, [2]string{k, gn})
		}
	}
	return out
}

// runMulti executes a multi-core instance and validates it.
func runMulti(inst *workloads.MultiInstance, cfg sim.Config) (sim.Result, error) {
	cfg.Cores = inst.Cores
	s := sim.New(cfg, inst.Mem)
	for c := range inst.Per {
		s.Load(c, inst.Per[c].Main, inst.Per[c].Helpers)
	}
	res, err := s.Run()
	if err != nil {
		return res, err
	}
	if err := inst.Check(inst.Mem); err != nil {
		return res, fmt.Errorf("%s: %w", inst.Name, err)
	}
	return res, nil
}

// multiCycles builds and runs one configuration, returning cycles.
func multiCycles(kernel, graphName string, cores int, tech workloads.MultiTech, opts workloads.Options, cfg sim.Config) (int64, error) {
	inst, err := workloads.NewMulti(kernel, graphName, cores, tech, opts)
	if err != nil {
		return 0, err
	}
	res, err := runMulti(inst, cfg)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// fig9Job is one independent unit of figure 9: a (kernel, graph) pair at
// one core count, or, with cores == 0, the pair's "no omp" column.
type fig9Job struct {
	kernel, graph string
	cores         int
}

// fig9Speedups is one job's outcome: the speedups of SWPF, SMT OpenMP and
// Ghost Threading over the same-core-count baseline, or (no-omp jobs) the
// single-threaded ghost speedup in noOmp.
type fig9Speedups struct {
	swpf, smt, ghost float64
	noOmp            float64
}

// Figure9 reproduces the multi-core scaling study (paper §6.4): for each
// core count, the geomean speedup of SWPF, SMT OpenMP, and Ghost
// Threading over the OpenMP-parallelized baseline on the same number of
// cores. Ghost-vs-OpenMP selection uses the paper's multi-core method —
// a training run on the profiling inputs, not the single-core heuristic.
//
// The (kernel, graph, cores) rows are independent simulations, so they
// run on a bounded pool of workers (workers <= 0 means GOMAXPROCS), like
// RunMatrixWorkers. Results are assembled in row order, so the returned
// Fig9Result is identical for any worker count. On error, the first
// failure in row order is reported. The progress callback is serialized.
func Figure9(workers int, progress func(string)) (*Fig9Result, error) {
	return figure9(fig9Workloads(), workers, progress)
}

// figure9 is Figure9 over the given (kernel, graph) pairs.
func figure9(pairs [][2]string, workers int, progress func(string)) (*Fig9Result, error) {
	cfg := sim.DefaultConfig()
	res := &Fig9Result{Geomean: map[string]map[int]float64{}}
	for _, tech := range []string{TechSWPF, TechSMT, TechGhost} {
		res.Geomean[tech] = map[int]float64{}
	}
	for _, kg := range pairs {
		res.Workloads = append(res.Workloads, kg[0]+"."+kg[1])
	}

	var jobs []fig9Job
	for _, cores := range append(append([]int(nil), Fig9CoreCounts...), 0) {
		for _, kg := range pairs {
			jobs = append(jobs, fig9Job{kernel: kg[0], graph: kg[1], cores: cores})
		}
	}
	out := make([]fig9Speedups, len(jobs))
	errs := make([]error, len(jobs))
	var progressMu sync.Mutex
	forEachIndex(len(jobs), workers, func(i int) {
		j := jobs[i]
		if progress != nil {
			label := fmt.Sprintf("%s.%s @ %d cores", j.kernel, j.graph, j.cores)
			if j.cores == 0 {
				label = j.kernel + "." + j.graph + " (no omp)"
			}
			progressMu.Lock()
			progress(label)
			progressMu.Unlock()
		}
		if j.cores == 0 {
			out[i].noOmp, errs[i] = fig9NoOmp(j.kernel+"."+j.graph, cfg)
		} else {
			out[i], errs[i] = fig9Row(j, cfg)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for k, cores := range Fig9CoreCounts {
		var swpf, smt, ghost []float64
		for _, r := range out[k*len(pairs) : (k+1)*len(pairs)] {
			swpf = append(swpf, r.swpf)
			smt = append(smt, r.smt)
			ghost = append(ghost, r.ghost)
		}
		res.Geomean[TechSWPF][cores] = Geomean(swpf)
		res.Geomean[TechSMT][cores] = Geomean(smt)
		res.Geomean[TechGhost][cores] = Geomean(ghost)
	}
	var noOmp []float64
	for _, r := range out[len(Fig9CoreCounts)*len(pairs):] {
		noOmp = append(noOmp, r.noOmp)
	}
	res.NoOmp = Geomean(noOmp)
	return res, nil
}

// fig9Row runs one (kernel, graph, cores) row: the baseline, SWPF and SMT
// OpenMP on the evaluation input, then Ghost Threading chosen against SMT
// by a training-input comparison (paper §6.4).
func fig9Row(j fig9Job, cfg sim.Config) (fig9Speedups, error) {
	var r fig9Speedups
	run := func(tech workloads.MultiTech, opts workloads.Options) (int64, error) {
		return multiCycles(j.kernel, j.graph, j.cores, tech, opts, cfg)
	}
	base, err := run(workloads.MultiBaseline, workloads.DefaultOptions())
	if err != nil {
		return r, err
	}
	swpf, err := run(workloads.MultiSWPF, workloads.DefaultOptions())
	if err != nil {
		return r, err
	}
	smt, err := run(workloads.MultiSMT, workloads.DefaultOptions())
	if err != nil {
		return r, err
	}
	gt, err := run(workloads.MultiGhost, workloads.ProfileOptions())
	if err != nil {
		return r, err
	}
	st, err := run(workloads.MultiSMT, workloads.ProfileOptions())
	if err != nil {
		return r, err
	}
	chosen := workloads.MultiGhost
	if st < gt {
		chosen = workloads.MultiSMT
	}
	c, err := run(chosen, workloads.DefaultOptions())
	if err != nil {
		return r, err
	}
	r.swpf = float64(base) / float64(swpf)
	r.smt = float64(base) / float64(smt)
	r.ghost = float64(base) / float64(c)
	return r, nil
}

// fig9NoOmp is one workload's "no omp" column: the single-threaded
// baseline vs its ghost, training-selected against the baseline since no
// OpenMP exists in this column.
func fig9NoOmp(name string, cfg sim.Config) (float64, error) {
	build, err := workloads.Lookup(name)
	if err != nil {
		return 0, err
	}
	// Training comparison at profiling scale.
	pg := build(workloads.ProfileOptions())
	gRes, err := sim.RunProgram(cfg, pg.Mem, pg.Ghost.Main, pg.Ghost.Helpers)
	if err != nil {
		return 0, err
	}
	pb := build(workloads.ProfileOptions())
	bRes, err := sim.RunProgram(cfg, pb.Mem, pb.Baseline.Main, nil)
	if err != nil {
		return 0, err
	}
	useGhost := gRes.Cycles < bRes.Cycles

	eb := build(workloads.DefaultOptions())
	baseRes, err := sim.RunProgram(cfg, eb.Mem, eb.Baseline.Main, nil)
	if err != nil {
		return 0, err
	}
	cycles := baseRes.Cycles
	if useGhost {
		eg := build(workloads.DefaultOptions())
		gRes2, err := sim.RunProgram(cfg, eg.Mem, eg.Ghost.Main, eg.Ghost.Helpers)
		if err != nil {
			return 0, err
		}
		if err := eg.Check(eg.Mem); err != nil {
			return 0, err
		}
		cycles = gRes2.Cycles
	}
	return float64(baseRes.Cycles) / float64(cycles), nil
}

// RenderFigure9 formats the scaling table.
func RenderFigure9(r *Fig9Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workloads: %s\n", strings.Join(r.Workloads, " "))
	fmt.Fprintf(&b, "%-16s %10s", "technique", "no-omp")
	for _, c := range Fig9CoreCounts {
		fmt.Fprintf(&b, " %9dc", c)
	}
	b.WriteByte('\n')
	for _, tech := range []string{TechSWPF, TechSMT, TechGhost} {
		fmt.Fprintf(&b, "%-16s", tech)
		if tech == TechGhost {
			fmt.Fprintf(&b, " %10.2f", r.NoOmp)
		} else {
			fmt.Fprintf(&b, " %10s", "-")
		}
		for _, c := range Fig9CoreCounts {
			fmt.Fprintf(&b, " %10.2f", r.Geomean[tech][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
