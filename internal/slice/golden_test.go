package slice_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ghostthread/internal/analysis"
	"ghostthread/internal/lint"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/extract_golden.json from the current extractor")

// extraction is one golden row: what the extractor kept, dropped and
// rematerialized for a workload in one mode, and the validator's verdicts.
type extraction struct {
	Workload       string              `json:"workload"`
	Mode           string              `json:"mode"`
	Err            string              `json:"error,omitempty"`
	Kept           int                 `json:"kept"`
	Dropped        int                 `json:"dropped"`
	Rematerialized int                 `json:"rematerialized"`
	Verdicts       []*analysis.Verdict `json:"verdicts,omitempty"`
}

// extractRegistry extracts every registry workload at profile scale with
// the annotation-derived targets, statically and per phase.
func extractRegistry() []extraction {
	wopts := workloads.ProfileOptions()
	var out []extraction
	for _, e := range workloads.Entries() {
		inst := e.Build(wopts)
		base := inst.Baseline.Main
		targets := lint.StaticTargets(base)
		for _, mode := range []struct {
			name     string
			perPhase bool
		}{{"static", false}, {"per-phase", true}} {
			row := extraction{Workload: e.Name, Mode: mode.name}
			res, err := slice.ExtractWith(base, targets, wopts.Sync, inst.Counters,
				slice.Options{AllowUnproved: true, PerPhase: mode.perPhase})
			if err != nil {
				row.Err = err.Error()
			} else {
				row.Kept, row.Dropped, row.Rematerialized = res.Kept, res.Dropped, res.Rematerialized
				row.Verdicts = res.Verdicts
			}
			out = append(out, row)
		}
	}
	return out
}

// TestExtractGolden pins the compiler extractor's output and the
// translation validator's verdicts on it, for every registry workload,
// against testdata/extract_golden.json. After a reviewed change,
// re-bless with
//
//	go test ./internal/slice -run TestExtractGolden -update
func TestExtractGolden(t *testing.T) {
	got, err := json.MarshalIndent(extractRegistry(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "extract_golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var gotRows, wantRows []extraction
	if err := json.Unmarshal(got, &gotRows); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantRows); err != nil {
		t.Fatalf("golden unreadable: %v", err)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%d extractions, golden has %d", len(gotRows), len(wantRows))
	}
	for i := range gotRows {
		g, _ := json.Marshal(gotRows[i])
		w, _ := json.Marshal(wantRows[i])
		if !bytes.Equal(g, w) {
			t.Errorf("%s %s differs from the golden:\ngot:  %s\nwant: %s",
				gotRows[i].Workload, gotRows[i].Mode, g, w)
		}
	}
}
