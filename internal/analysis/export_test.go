package analysis

import (
	"fmt"

	"ghostthread/internal/isa"
)

// sortedLists checks the invariants the linear merges in exprAdd and
// mergeSorted rely on: terms strictly ascending by atom key, and the
// Loads, Skips and frees lists strictly ascending.
func sortedLists(e *SymExpr) error {
	for i := 1; i < len(e.Terms); i++ {
		if e.Terms[i-1].Atom.Key() >= e.Terms[i].Atom.Key() {
			return fmt.Errorf("terms out of order: %q before %q", e.Terms[i-1].Atom.Key(), e.Terms[i].Atom.Key())
		}
	}
	for _, l := range []struct {
		name string
		v    []int
	}{{"loads", e.Loads}, {"skips", e.Skips}, {"frees", e.frees}} {
		for i := 1; i < len(l.v); i++ {
			if l.v[i-1] >= l.v[i] {
				return fmt.Errorf("%s not strictly ascending: %v", l.name, l.v)
			}
		}
	}
	return nil
}

// CheckSymInvariants symbolically evaluates every SSA value of p (as a
// ghost when ghost is set) and checks every expression in the resulting
// DAG with sortedLists. It returns the number of distinct expressions
// checked and the first violation.
func CheckSymInvariants(p *isa.Program, ghost bool) (int, error) {
	pt := AnalyzeAddrPatterns(p)
	s := BuildSSA(pt.G)
	ev := newSymEval(p, pt.G, s, pt.F, nil, ghost, newSymTable())
	seen := map[*SymExpr]bool{}
	var walk func(e *SymExpr) error
	walk = func(e *SymExpr) error {
		if seen[e] {
			return nil
		}
		seen[e] = true
		if err := sortedLists(e); err != nil {
			return fmt.Errorf("%s: %w", ev.tab.render(e), err)
		}
		for _, t := range e.Terms {
			subs := t.Atom.Args
			if t.Atom.Addr != nil {
				subs = append(subs[:len(subs):len(subs)], t.Atom.Addr)
			}
			for _, sub := range subs {
				if err := walk(sub); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for id := range s.Vals {
		if err := walk(ev.ValueExpr(id)); err != nil {
			return len(seen), err
		}
	}
	return len(seen), nil
}
