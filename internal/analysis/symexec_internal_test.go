package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ghostthread/internal/isa"
)

// refMergeSorted is the set-union definition mergeSorted must agree with.
func refMergeSorted(a, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range append(append([]int(nil), a...), b...) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// refAddTerms is the definition of exprAdd's term list: coefficients
// summed per atom key, zero sums dropped, ascending key order.
func refAddTerms(a, b []SymTerm) []SymTerm {
	merged := map[string]*SymTerm{}
	var order []string
	for _, src := range [][]SymTerm{a, b} {
		for _, t := range src {
			k := t.Atom.Key()
			if m, ok := merged[k]; ok {
				m.Coeff += t.Coeff
			} else {
				nt := t
				merged[k] = &nt
				order = append(order, k)
			}
		}
	}
	sort.Strings(order)
	var out []SymTerm
	for _, k := range order {
		if merged[k].Coeff != 0 {
			out = append(out, *merged[k])
		}
	}
	return out
}

func randSortedInts(r *rand.Rand) []int {
	var out []int
	for v := r.Intn(4); len(out) < r.Intn(8); v += 1 + r.Intn(4) {
		out = append(out, v)
	}
	return out
}

// randExpr builds a canonical expression over leaf atoms whose keys
// ("p10" < "p2", "i[L0]" < "p0") do not sort like their indices. A zero
// coefficient (what exprScale leaves after an overflow) appears now and
// then.
func randExpr(r *rand.Rand, atoms []*SymAtom) *SymExpr {
	e := exprConst(int64(r.Intn(9) - 4))
	for _, a := range atoms {
		if r.Intn(3) == 0 {
			e.Terms = append(e.Terms, SymTerm{Coeff: int64(r.Intn(5) - 2), Atom: a})
		}
	}
	sort.Slice(e.Terms, func(i, j int) bool { return e.Terms[i].Atom.Key() < e.Terms[j].Atom.Key() })
	e.Loads, e.Skips, e.frees = randSortedInts(r), randSortedInts(r), randSortedInts(r)
	return e
}

// TestLinearMergesMatchDefinitions: mergeSorted and exprAdd walk their
// inputs once, relying on every list being strictly ascending. On random
// inputs that keep that invariant they must agree with the map-and-sort
// definitions and keep the invariant themselves.
func TestLinearMergesMatchDefinitions(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var atoms []*SymAtom
	for reg := 0; reg < 12; reg++ {
		atoms = append(atoms, &SymAtom{Kind: AtomParam, Reg: isa.Reg(reg)})
	}
	for l := 0; l < 3; l++ {
		atoms = append(atoms, &SymAtom{Kind: AtomIter, Loop: fmt.Sprintf("L%d", l)})
	}
	for i := 0; i < 2000; i++ {
		a, b := randSortedInts(r), randSortedInts(r)
		got := mergeSorted(a, b)
		if want := refMergeSorted(a, b); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("mergeSorted(%v, %v) = %v, want %v", a, b, got, want)
		}

		x, y := randExpr(r, atoms), randExpr(r, atoms)
		sum := exprAdd(x, y)
		if want := refAddTerms(x.Terms, y.Terms); !reflect.DeepEqual(sum.Terms, want) {
			t.Fatalf("exprAdd(%s, %s) terms = %v, want %v", x.Key(), y.Key(), sum.Terms, want)
		}
		if err := sortedLists(sum); err != nil {
			t.Fatalf("exprAdd(%s, %s): %v", x.Key(), y.Key(), err)
		}
	}
}
