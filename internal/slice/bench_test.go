package slice_test

import (
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/lint"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// extractWorkload extracts one registry workload at profile scale.
func extractWorkload(tb testing.TB, name string, opts slice.Options) (*slice.Result, func() (*slice.Result, error)) {
	tb.Helper()
	build, err := workloads.Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	wopts := workloads.ProfileOptions()
	inst := build(wopts)
	base := inst.Baseline.Main
	targets := lint.StaticTargets(base)
	opts.AllowUnproved = true
	extract := func() (*slice.Result, error) {
		return slice.ExtractWith(base, targets, wopts.Sync, inst.Counters, opts)
	}
	res, err := extract()
	if err != nil {
		tb.Fatal(err)
	}
	return res, extract
}

// BenchmarkExtract is the host-cost row of compiler extraction plus its
// translation validation: hj8 (whose hash rounds make the expression DAG
// the deepest in the registry), static and per phase, and camel.
//
//	go test ./internal/slice -run '^$' -bench Extract
func BenchmarkExtract(b *testing.B) {
	for _, c := range []struct {
		name     string
		workload string
		perPhase bool
	}{
		{"hj8/static", "hj8", false},
		{"hj8/per-phase", "hj8", true},
		{"camel/static", "camel", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			_, extract := extractWorkload(b, c.workload, slice.Options{PerPhase: c.perPhase})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := extract(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestVerifyWorkIsLinear bounds the translation validator's work on the
// registry's deepest expression DAG: hj8's static compiler slice, whose
// hash rounds share every sub-expression twice. Walking that DAG as a
// tree costs ~18M allocations; linear rewriting and unfolding need
// under 20K. The bound leaves 3× headroom over that.
func TestVerifyWorkIsLinear(t *testing.T) {
	const maxAllocs = 60_000
	res, _ := extractWorkload(t, "hj8", slice.Options{})
	allocs := testing.AllocsPerRun(1, func() {
		analysis.VerifyHelper(res.Main, res.Ghost, 0)
	})
	if allocs > maxAllocs {
		t.Fatalf("VerifyHelper on hj8's compiler slice made %.0f allocations, bound %d", allocs, maxAllocs)
	}
}
