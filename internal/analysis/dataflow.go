package analysis

import (
	"math/bits"
	"slices"

	"ghostthread/internal/isa"
)

// RegSet is a bitset over the register file.
type RegSet [isa.NumRegs / 64]uint64

// Add inserts a register.
func (s *RegSet) Add(r isa.Reg) { s[r/64] |= 1 << (r % 64) }

// Has reports membership.
func (s *RegSet) Has(r isa.Reg) bool { return s[r/64]&(1<<(r%64)) != 0 }

// Remove deletes a register.
func (s *RegSet) Remove(r isa.Reg) { s[r/64] &^= 1 << (r % 64) }

// Union merges o into s, reporting whether s changed.
func (s *RegSet) Union(o *RegSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Count returns the number of registers in the set.
func (s *RegSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// srcRegs appends the source registers the instruction reads.
func srcRegs(in *isa.Instr) []isa.Reg {
	switch in.Op.NumSrcs() {
	case 1:
		return []isa.Reg{in.Src1}
	case 2:
		return []isa.Reg{in.Src1, in.Src2}
	}
	return nil
}

// DefUse holds reaching-definition chains: for every use of a register,
// the set of definition sites that may reach it, and the reverse map.
type DefUse struct {
	// DefsAt[pc] lists the definition PCs that may reach the uses of
	// instruction pc (union over its source registers).
	DefsAt map[int][]int
	// defsOf[pc][r] lists the definition PCs of register r reaching pc.
	defsOf map[int]map[isa.Reg][]int
	// UsesOf[def] lists the PCs whose uses def may reach.
	UsesOf map[int][]int
}

// DefsOfReg returns the definition PCs of register r that may reach the
// use at pc.
func (du *DefUse) DefsOfReg(pc int, r isa.Reg) []int { return du.defsOf[pc][r] }

// ReachingDefs computes def-use chains over the CFG with an iterative
// reaching-definitions analysis (defs are instruction PCs; a definition
// of a register kills all earlier definitions of the same register).
func (g *CFG) ReachingDefs() *DefUse {
	p := g.Prog
	nb := len(g.Blocks)
	nregs := 0 // one past the highest register any field names
	for i := range p.Code {
		in := &p.Code[i]
		nregs = max(nregs, int(in.Dst)+1, int(in.Src1)+1, int(in.Src2)+1)
	}

	// Per-block out-states plus one scratch in-state, all carved from one
	// backing array and reused across the fixpoint's iterations.
	backing := make([][]int, (nb+1)*nregs)
	newState := func(i int) defState {
		return defState{defs: backing[i*nregs : (i+1)*nregs : (i+1)*nregs]}
	}
	out := make([]defState, nb)
	for i := range out {
		out[i] = newState(i)
	}
	in := newState(nb)
	blockIn := func(b int) {
		in.reset()
		for _, pr := range g.Blocks[b].Preds {
			in.merge(&out[pr])
		}
	}

	for changed := true; changed; {
		changed = false
		for _, b := range g.RPO {
			blockIn(b)
			for pc := g.Blocks[b].Start; pc < g.Blocks[b].End; pc++ {
				if instr := &p.Code[pc]; instr.Op.HasDst() {
					in.define(instr.Dst, pc)
				}
			}
			if out[b].merge(&in) {
				changed = true
			}
		}
	}

	du := &DefUse{DefsAt: map[int][]int{}, defsOf: map[int]map[isa.Reg][]int{}, UsesOf: map[int][]int{}}
	for _, b := range g.RPO {
		blockIn(b)
		for pc := g.Blocks[b].Start; pc < g.Blocks[b].End; pc++ {
			instr := &p.Code[pc]
			for _, r := range srcRegs(instr) {
				defs := in.defs[r]
				if len(defs) > 0 {
					du.DefsAt[pc] = append(du.DefsAt[pc], defs...)
					m := du.defsOf[pc]
					if m == nil {
						m = map[isa.Reg][]int{}
						du.defsOf[pc] = m
					}
					m[r] = append(m[r], defs...)
					for _, d := range defs {
						du.UsesOf[d] = append(du.UsesOf[d], pc)
					}
				}
			}
			if instr.Op.HasDst() {
				in.define(instr.Dst, pc)
			}
		}
	}
	return du
}

// defState is the set of definitions reaching one program point: per
// register, the definition PCs in the order they first reached it (the
// order DefUse reports), and the set of registers that have any.
type defState struct {
	regs RegSet
	defs [][]int // indexed by register
}

// reset empties s, keeping every list's capacity.
func (s *defState) reset() {
	for w, word := range s.regs {
		for ; word != 0; word &= word - 1 {
			r := w*64 + bits.TrailingZeros64(word)
			s.defs[r] = s.defs[r][:0]
		}
	}
	s.regs = RegSet{}
}

// merge appends to s every definition of src it lacks, reporting whether
// s changed. The lists hold a handful of PCs, so a linear scan beats any
// set structure.
func (s *defState) merge(src *defState) bool {
	changed := false
	for w, word := range src.regs {
		for ; word != 0; word &= word - 1 {
			r := w*64 + bits.TrailingZeros64(word)
			have := s.defs[r]
			for _, d := range src.defs[r] {
				if !slices.Contains(have, d) {
					have = append(have, d)
					changed = true
				}
			}
			s.defs[r] = have
		}
	}
	s.regs.Union(&src.regs)
	return changed
}

// define makes pc the only definition of r that reaches past it.
func (s *defState) define(r isa.Reg, pc int) {
	s.defs[r] = append(s.defs[r][:0], pc)
	s.regs.Add(r)
}

// Liveness computes per-block live-out register sets with the standard
// backward dataflow, and returns them indexed by block ID.
func (g *CFG) Liveness() []RegSet {
	p := g.Prog
	nb := len(g.Blocks)
	liveIn := make([]RegSet, nb)
	liveOut := make([]RegSet, nb)

	blockIn := func(b int) RegSet {
		live := liveOut[b]
		for pc := g.Blocks[b].End - 1; pc >= g.Blocks[b].Start; pc-- {
			in := &p.Code[pc]
			if in.Op.HasDst() {
				live.Remove(in.Dst)
			}
			for _, r := range srcRegs(in) {
				live.Add(r)
			}
		}
		return live
	}

	for changed := true; changed; {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.RPO[i]
			var out RegSet
			for _, s := range g.Blocks[b].Succs {
				out.Union(&liveIn[s])
			}
			liveOut[b] = out
			in := blockIn(b)
			if liveIn[b] != in {
				liveIn[b] = in
				changed = true
			}
		}
	}
	return liveOut
}
