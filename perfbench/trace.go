package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the worker that made
// it. Spans of one worker nest strictly (a worker runs one call at a
// time), so a span's self time is its duration minus its children's.
// Start and end are read from the process CPU clock (cpuNow).
type span struct {
	name   string
	parent int // index into the worker's spans, -1 for a unit (top level)
	start  time.Duration
	end    time.Duration
	child  time.Duration // summed duration of the direct children
	instr  int64         // sim.run spans: committed instructions
	cores  int           // sim.run spans: simulated cores
}

// tracer records spans for one worker. A disabled tracer records nothing
// and never reads the clock, so an untraced pass pays only a branch.
type tracer struct {
	on    bool
	spans []span
	stack []int
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: cpuNow()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.end = cpuNow()
	t.stack = t.stack[:len(t.stack)-1]
	if s.parent >= 0 {
		t.spans[s.parent].child += s.end - s.start
	}
}

// endRun closes a sim.run span, tagging it with the run's size.
func (t *tracer) endRun(id int, instr int64, cores int) {
	if id < 0 {
		return
	}
	t.spans[id].instr = instr
	t.spans[id].cores = cores
	t.end(id)
}

// traceSummary is what the per-layer metrics need from a traced pass.
type traceSummary struct {
	self      map[string]float64 // seconds of self time per span name
	unitSelf  float64            // self time of the units: time in no layer
	runMs     []float64          // duration of every sim.run span
	runNsPerI map[int][2]float64 // cores -> {ns in sim.run, instructions}
}

func summarize(t *tracer) traceSummary {
	sum := traceSummary{self: map[string]float64{}, runNsPerI: map[int][2]float64{}}
	for _, s := range t.spans {
		d := s.end - s.start
		self := (d - s.child).Seconds()
		if s.parent < 0 {
			sum.unitSelf += self
			continue
		}
		sum.self[s.name] += self
		if s.name == "sim.run" {
			sum.runMs = append(sum.runMs, float64(d)/1e6)
			acc := sum.runNsPerI[s.cores]
			acc[0] += float64(d)
			acc[1] += float64(s.instr)
			sum.runNsPerI[s.cores] = acc
		}
	}
	sort.Float64s(sum.runMs)
	return sum
}

// selfTotal is the sum of every span's self time, units included. When
// every call a unit makes is inside a span it equals the worker's busy
// time, which the pass measures separately; main checks that it does.
func (s traceSummary) selfTotal() float64 {
	total := s.unitSelf
	for _, v := range s.self {
		total += v
	}
	return total
}
