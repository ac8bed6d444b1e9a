package prof

import (
	"encoding/json"
	"strings"
	"testing"

	"stars/internal/obs"
)

// sampleProfile records a fixture through a profiled sink's public entry
// points: phases, a guard meter and one parallel rank.
func sampleProfile() *Profile {
	s := obs.NewMetricsSink()
	s.EnableProf(obs.ProfOptions{})
	for _, ph := range []string{"prepare", "access", "join-2", "root", "finalize"} {
		s.ProfPhase(ph, 30, 4)
	}
	s.ProfActivity(obs.ActGuard, 1000, 100)
	s.ProfRank(obs.Rank{Rank: 2, Tasks: 4, Workers: 2, WallNS: 100, CollectNS: 5, ExecNS: 80, AbsorbNS: 15, BusyNS: []int64{60, 20}})
	return FromSink(s)
}

func TestReportShape(t *testing.T) {
	r := NewReport(2, 4)
	p := sampleProfile()
	p.ElapsedNS, p.Allocs = 150, 60
	r.Add("star8", p)

	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["schema"] != SchemaV1 {
		t.Fatalf("schema = %v, want %s", doc["schema"], SchemaV1)
	}
	ws := doc["workloads"].([]any)
	w0 := ws[0].(map[string]any)
	if w0["name"] != "star8" {
		t.Fatalf("workload name = %v", w0["name"])
	}
	// The workload entry must flatten the profile fields (CI's jq reads
	// .workloads[].phases and .workloads[].elapsed_ns directly).
	if _, ok := w0["phases"].([]any); !ok {
		t.Fatalf("workload entry lacks flattened phases: %v", w0)
	}
	if w0["elapsed_ns"].(float64) != 150 {
		t.Fatalf("workload elapsed_ns = %v, want 150", w0["elapsed_ns"])
	}
	if doc["totals"].(map[string]any)["elapsed_ns"].(float64) != 150 {
		t.Fatal("totals not folded")
	}

	text := r.Format(5)
	for _, needle := range []string{"star8", "join-2", "IMBAL", "guard_eval", "totals"} {
		if !strings.Contains(text, needle) {
			t.Errorf("formatted report missing %q:\n%s", needle, text)
		}
	}
}
