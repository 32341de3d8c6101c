package main

import (
	"fmt"
	"strings"

	"ghostthread/internal/harness"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// fig9Case is one multi-core run: kernel on urand at cores, one technique.
type fig9Case struct {
	kernel string
	cores  int
	tech   workloads.MultiTech
	in     *workloads.MultiInstance
	snap   []int64
	cycles int64 // filled by each pass
}

// fig9 is figure 9's multi-core study cut to the two techniques whose
// ratio it reports: bfs, cc and pr on urand at 2 and 4 simulated cores,
// baseline and ghost, at evaluation scale.
type fig9 struct {
	cases []*fig9Case
}

func (f *fig9) setup(tr *tracer) {
	f.cases = f.cases[:0]
	for _, k := range []string{"pr", "cc", "bfs"} {
		for _, cores := range []int{4, 2} {
			for _, tech := range []workloads.MultiTech{workloads.MultiGhost, workloads.MultiBaseline} {
				id := tr.begin("workloads.build")
				in, err := workloads.NewMulti(k, "urand", cores, tech, workloads.DefaultOptions())
				if err != nil {
					panic(err)
				}
				snap := in.Mem.Snapshot()
				tr.end(id)
				f.cases = append(f.cases, &fig9Case{kernel: k, cores: cores, tech: tech, in: in, snap: snap})
			}
		}
	}
}

func (f *fig9) units() []unit {
	us := make([]unit, len(f.cases))
	for i, c := range f.cases {
		us[i] = unit{name: "fig9.run", run: func(w *worker) string {
			c.cycles = w.runMulti(c)
			return fmt.Sprintf("%s.urand@%dc %v cycles=%d", c.kernel, c.cores, c.tech, c.cycles)
		}}
	}
	return us
}

// runMulti is the harness's multi-core run: restore, load one program
// set per core, run, check. It returns 0 cycles on failure.
func (w *worker) runMulti(c *fig9Case) int64 {
	w.tal.Attempted++
	w.restore(c.in.Mem, c.snap)
	cfg := sim.DefaultConfig()
	cfg.Cores = c.in.Cores
	s := sim.New(cfg, c.in.Mem)
	for i := range c.in.Per {
		s.Load(i, c.in.Per[i].Main, c.in.Per[i].Helpers)
	}
	res, err := w.simulate(s, c.in.Cores)
	if err == nil {
		err = w.check(c.in.Check, c.in.Mem)
	}
	if err != nil {
		w.fail("%s: %v", c.in.Name, err)
		return 0
	}
	return res.Cycles
}

// speedups reports the geomean of ghost over baseline per (kernel, cores).
func (f *fig9) speedups() map[string]float64 {
	base := map[string]int64{}
	for _, c := range f.cases {
		if c.tech == workloads.MultiBaseline {
			base[fmt.Sprintf("%s/%d", c.kernel, c.cores)] = c.cycles
		}
	}
	var vals []float64
	for _, c := range f.cases {
		if c.tech == workloads.MultiGhost && c.cycles > 0 {
			if b := base[fmt.Sprintf("%s/%d", c.kernel, c.cores)]; b > 0 {
				vals = append(vals, float64(b)/float64(c.cycles))
			}
		}
	}
	return map[string]float64{harness.TechGhost: harness.Geomean(vals)}
}

// gate: figure 9 has no harness entry point cheaper than the whole
// figure, so its runs are held to their MultiInstance checks alone.
func (f *fig9) gate(int64) error { return nil }

func (f *fig9) memWords() int64 {
	var n int64
	for _, c := range f.cases {
		n += c.in.Mem.Size()
	}
	return n
}

func (f *fig9) table() string {
	var b strings.Builder
	for _, c := range f.cases {
		fmt.Fprintf(&b, "%-4s urand %dc %-9v %10d cycles\n", c.kernel, c.cores, c.tech, c.cycles)
	}
	return b.String()
}
