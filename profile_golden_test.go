package stars_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"stars"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/golden files this package pins from this tree")

const profileGolden = "testdata/golden/profile_v1.txt"

// maskedProfileKey reports the stars/profile/v1 fields that read a clock, the
// runtime's allocation counter or the machine; the golden keeps their keys
// and masks their values.
func maskedProfileKey(k string) bool {
	return k == "ns" || strings.HasSuffix(k, "_ns") || k == "allocs" || k == "imbalance" || k == "gomaxprocs"
}

// maskProfile replaces every masked value with "*" and sorts the rule and
// span rows by name, whose display order follows self-time.
func maskProfile(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			switch {
			case maskedProfileKey(k):
				v[k] = "*"
			case k == "rules" || k == "spans":
				rows, _ := x.([]any)
				sort.Slice(rows, func(i, j int) bool {
					return rows[i].(map[string]any)["name"].(string) < rows[j].(map[string]any)["name"].(string)
				})
				v[k] = maskProfile(x)
			default:
				v[k] = maskProfile(x)
			}
		}
	case []any:
		for i := range v {
			v[i] = maskProfile(v[i])
		}
	}
	return v
}

// TestProfileReportGolden pins the stars/profile/v1 document `starburst
// profile -json` writes for figure1, chain5 and star4 at Parallelism 1 and 2:
// its key set, every count, rank tasks and workers, the phase list in display
// order, and the rule and span name sets. Durations and allocation figures are
// masked. Rewrite it with `go test . -run TestProfileReportGolden
// -update-golden`.
func TestProfileReportGolden(t *testing.T) {
	want := map[string]bool{"figure1": true, "chain5": true, "star4": true}
	var b strings.Builder
	for _, par := range []int{1, 2} {
		report := stars.NewProfileReport(2, par)
		for _, e := range stars.WorkloadCorpus() {
			if !want[e.Name] {
				continue
			}
			sink := stars.NewMetricsSink()
			stars.EnableProfiling(sink, stars.ProfileOptions{})
			a0, t0 := stars.HeapAllocs(), time.Now()
			if _, err := stars.Optimize(e.Cat, e.Query, stars.Options{Obs: sink, Parallelism: par}); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			p := stars.ProfileOf(sink)
			p.ElapsedNS = time.Since(t0).Nanoseconds()
			p.Allocs = stars.HeapAllocs() - a0
			report.Add(e.Name, p)
		}
		raw, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(maskProfile(doc), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "# parallelism %d\n%s\n", par, out)
	}
	if *updateGolden {
		if err := os.WriteFile(profileGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(profileGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(raw) {
		t.Errorf("%s moved\n got:\n%s\nwant:\n%s", profileGolden, got, raw)
	}
}
