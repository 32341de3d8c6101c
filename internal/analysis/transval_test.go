package analysis_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/isa"
	"ghostthread/internal/lint"
	"ghostthread/internal/workloads"
)

// buildPair emits a tiny main+ghost pair sharing one counted loop over a
// strided array, with the ghost's prefetch address produced by mutate
// (identity for the PROVED case).
func buildPair(t *testing.T, stride int64, mutate func(b *isa.Builder, addr isa.Reg)) (*isa.Program, *isa.Program) {
	t.Helper()
	const base = 4096

	mb := isa.NewBuilder("tv-main")
	mZero, mLim := mb.Reg(), mb.Reg()
	mAddr, mVal, mSum := mb.Reg(), mb.Reg(), mb.Reg()
	mb.Const(mZero, 0)
	mb.Const(mLim, 64)
	mb.Const(mSum, 0)
	mb.Spawn(0)
	mb.CountedLoop("walk", mZero, mLim, func(i isa.Reg) {
		mb.MulI(mAddr, i, stride)
		mb.Load(mVal, mAddr, base)
		mb.MarkTarget()
		mb.Add(mSum, mSum, mVal)
	})
	mb.Join()
	mb.Halt()
	main, err := mb.Build()
	if err != nil {
		t.Fatalf("main build: %v", err)
	}

	gb := isa.NewBuilder("tv-ghost")
	gZero, gLim, gAddr := gb.Reg(), gb.Reg(), gb.Reg()
	gb.Const(gZero, 0)
	gb.Const(gLim, 64)
	gb.CountedLoop("walk", gZero, gLim, func(i isa.Reg) {
		gb.MulI(gAddr, i, stride)
		mutate(gb, gAddr)
		gb.Prefetch(gAddr, base)
	})
	gb.Halt()
	ghost, err := gb.Build()
	if err != nil {
		t.Fatalf("ghost build: %v", err)
	}
	return main, ghost
}

func TestVerifyProvedIdenticalStream(t *testing.T) {
	main, ghost := buildPair(t, 8, func(b *isa.Builder, addr isa.Reg) {})
	vs := analysis.VerifyHelper(main, ghost, 0)
	if len(vs) != 1 {
		t.Fatalf("got %d verdicts, want 1", len(vs))
	}
	v := vs[0]
	if v.Status != analysis.Proved {
		t.Fatalf("status = %v, want PROVED (err=%q targets=%+v)", v.Status, v.Err, v.Targets)
	}
	if len(v.Targets) != 1 || v.Targets[0].GhostPC < 0 {
		t.Fatalf("target not matched: %+v", v.Targets)
	}
}

func TestVerifyProvedConstantLead(t *testing.T) {
	// Ghost runs a fixed 16-element lead: addr += 16*stride.
	main, ghost := buildPair(t, 8, func(b *isa.Builder, addr isa.Reg) {
		b.AddI(addr, addr, 16*8)
	})
	vs := analysis.VerifyHelper(main, ghost, 0)
	v := vs[0]
	if v.Status != analysis.Proved {
		t.Fatalf("status = %v, want PROVED (targets=%+v)", v.Status, v.Targets)
	}
	if v.Targets[0].Lead != 16*8 {
		t.Fatalf("lead = %d, want %d", v.Targets[0].Lead, 16*8)
	}
}

func TestVerifyUnprovedWrongStride(t *testing.T) {
	// Deliberately broken slice: the ghost walks stride 16 while the main
	// thread demands stride 8 — the address streams diverge.
	main, ghost := buildPair(t, 8, func(b *isa.Builder, addr isa.Reg) {
		b.ShlI(addr, addr, 1) // addr = 16*i instead of 8*i
	})
	vs := analysis.VerifyHelper(main, ghost, 0)
	v := vs[0]
	if v.Status != analysis.Unproved {
		t.Fatalf("status = %v, want UNPROVED (targets=%+v)", v.Status, v.Targets)
	}
	tv := v.Targets[0]
	if tv.Reason == "" || len(tv.CexPath) < 2 {
		t.Fatalf("missing counterexample: %+v", tv)
	}
	if tv.CexPath[0] != tv.TargetPC {
		t.Fatalf("cex path should start at the target load: %+v", tv)
	}
	if !strings.Contains(tv.Reason, "delta") {
		t.Fatalf("reason lacks delta: %q", tv.Reason)
	}
}

func TestVerifyNoSpawn(t *testing.T) {
	main, ghost := buildPair(t, 8, func(b *isa.Builder, addr isa.Reg) {})
	vs := analysis.VerifyHelper(main, ghost, 3) // no helper 3
	if len(vs) != 1 || vs[0].Status != analysis.Unproved || vs[0].Err == "" {
		t.Fatalf("want structural UNPROVED for missing spawn, got %+v", vs[0])
	}
}

// TestVerifyRegistryGhosts proves every manual ghost slice shipped in the
// workload registry — the static half of the paper's safety argument.
func TestVerifyRegistryGhosts(t *testing.T) {
	for _, e := range workloads.Entries() {
		inst := e.Build(workloads.ProfileOptions())
		if inst.Ghost == nil {
			continue
		}
		for hid, helper := range inst.Ghost.Helpers {
			for _, v := range analysis.VerifyHelper(inst.Ghost.Main, helper, hid) {
				if v.Status == analysis.Unproved {
					t.Errorf("%s helper %d spawn@%d: UNPROVED (err=%q)", e.Name, hid, v.SpawnPC, v.Err)
					for _, tv := range v.Targets {
						t.Errorf("  target@%d: %s main=%s ghost=%s reason=%s",
							tv.TargetPC, tv.Status, tv.MainExpr, tv.GhostExpr, tv.Reason)
					}
					continue
				}
				if len(v.Targets) == 0 && len(v.Auxiliary) == 0 {
					t.Errorf("%s helper %d spawn@%d: no proof obligations and no candidates (vacuous verdict)", e.Name, hid, v.SpawnPC)
				}
				t.Logf("%s helper %d spawn@%d: %s (%d targets, %d aux)",
					e.Name, hid, v.SpawnPC, v.Status, len(v.Targets), len(v.Auxiliary))
			}
		}
	}
}

// TestVerifyVerdictsIndependentOfHistory: rendered expressions name
// shared sub-expressions by interned #IDs, and those IDs must depend only
// on the pair being validated. tc.road's verdicts are the same whether it
// is validated first or after the rest of the registry, and equal to its
// entry in testdata/verify_golden.json, which `gtverify -all` wrote in a
// process of its own.
func TestVerifyVerdictsIndependentOfHistory(t *testing.T) {
	verify := func(name string) [][]*analysis.Verdict {
		build, err := workloads.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		inst := build(workloads.ProfileOptions())
		if inst.Ghost == nil {
			return nil
		}
		var out [][]*analysis.Verdict
		for hid, helper := range inst.Ghost.Helpers {
			out = append(out, analysis.VerifyHelper(inst.Ghost.Main, helper, hid))
		}
		return out
	}
	fresh := verify("tc.road")
	interned := false
	for _, vs := range fresh {
		for _, v := range vs {
			for _, tv := range v.Targets {
				interned = interned || strings.Contains(tv.MainExpr, "#")
			}
		}
	}
	if !interned {
		t.Fatal("tc.road renders no interned sub-expressions; the test needs another workload")
	}
	for _, e := range workloads.Entries() {
		if e.Name != "tc.road" {
			verify(e.Name)
		}
	}
	after := verify("tc.road")
	if !reflect.DeepEqual(fresh, after) {
		t.Fatalf("tc.road verdicts depend on what was validated before:\nfresh: %+v\nafter registry: %+v",
			fresh[0][0].Targets, after[0][0].Targets)
	}

	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "verify_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []lint.WorkloadVerdict
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	var want [][]*analysis.Verdict
	for _, wv := range golden {
		if wv.Workload == "tc.road" {
			for _, hv := range wv.Helpers {
				want = append(want, hv.Verdicts)
			}
		}
	}
	gotJSON, _ := json.Marshal(after)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("tc.road verdicts differ from gtverify's golden entry:\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
}

// TestSymExprListsSortedOnRegistry: every expression the evaluator
// builds for the registry's main programs and manual ghosts keeps the
// sorted-list invariants the linear merges rely on.
func TestSymExprListsSortedOnRegistry(t *testing.T) {
	checked := 0
	for _, e := range workloads.Entries() {
		inst := e.Build(workloads.ProfileOptions())
		progs := []*isa.Program{inst.Baseline.Main}
		ghosts := []bool{false}
		if inst.Ghost != nil {
			progs = append(progs, inst.Ghost.Main)
			ghosts = append(ghosts, false)
			for _, h := range inst.Ghost.Helpers {
				progs = append(progs, h)
				ghosts = append(ghosts, true)
			}
		}
		for i, p := range progs {
			n, err := analysis.CheckSymInvariants(p, ghosts[i])
			if err != nil {
				t.Fatalf("%s %s: %v", e.Name, p.Name, err)
			}
			checked += n
		}
	}
	if checked == 0 {
		t.Fatal("no expressions checked")
	}
	t.Logf("%d expressions checked", checked)
}

// xorshiftPair emits a main+ghost pair whose loop carries a xorshift
// state through rounds×3 shift-xor steps per iteration and demands (or
// prefetches) the word it selects. Every step reads the previous state
// twice, so the loop-carried value is a DAG that doubles per step when
// walked as a tree.
func xorshiftPair(t *testing.T, rounds int) (*isa.Program, *isa.Program) {
	t.Helper()
	const base = 4096
	body := func(b *isa.Builder, x isa.Reg, access func(addr isa.Reg)) {
		tmp, addr := b.Reg(), b.Reg()
		for r := 0; r < rounds; r++ {
			b.ShlI(tmp, x, 13)
			b.Xor(x, x, tmp)
			b.ShrI(tmp, x, 7)
			b.Xor(x, x, tmp)
			b.ShlI(tmp, x, 17)
			b.Xor(x, x, tmp)
		}
		b.AndI(addr, x, 1023)
		b.ShlI(addr, addr, 3)
		access(addr)
	}
	build := func(b *isa.Builder, spawn bool, access func(b *isa.Builder, addr isa.Reg)) *isa.Program {
		zero, lim, x := b.Reg(), b.Reg(), b.Reg()
		b.Const(zero, 0)
		b.Const(lim, 64)
		b.Const(x, 88172645463325252)
		if spawn {
			b.Spawn(0)
		}
		b.CountedLoop("walk", zero, lim, func(isa.Reg) {
			body(b, x, func(addr isa.Reg) { access(b, addr) })
		})
		if spawn {
			b.Join()
		}
		b.Halt()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	main := build(isa.NewBuilder("xs-main"), true, func(b *isa.Builder, addr isa.Reg) {
		b.Load(b.Reg(), addr, base)
		b.MarkTarget()
	})
	ghost := build(isa.NewBuilder("xs-ghost"), false, func(b *isa.Builder, addr isa.Reg) {
		b.Prefetch(addr, base)
	})
	return main, ghost
}

// TestVerifyLoopCarriedDAGIsLinear: values that reference a recurrence
// still being evaluated (the xorshift state inside its own loop) are
// memoized per binder scope, so 15 shift-xor steps cost ~6K allocations.
// Re-evaluating them per path through the DAG costs 3.2M (2^15 paths).
func TestVerifyLoopCarriedDAGIsLinear(t *testing.T) {
	main, ghost := xorshiftPair(t, 5)
	var vs []*analysis.Verdict
	allocs := testing.AllocsPerRun(1, func() { vs = analysis.VerifyHelper(main, ghost, 0) })
	if len(vs) != 1 || vs[0].Status != analysis.Proved {
		t.Fatalf("verdicts = %+v, want one PROVED", vs)
	}
	if allocs > 20_000 {
		t.Fatalf("VerifyHelper made %.0f allocations on a 15-step loop-carried DAG", allocs)
	}
}
