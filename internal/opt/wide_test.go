package opt

import (
	"fmt"
	"strings"
	"testing"

	"stars/internal/sqlparse"
	"stars/internal/workload"
)

// TestWideWhereClause pins that the bitset predicate sets moved no input
// limit: a WHERE clause of 100 conjuncts — past the 64 a set's inline word
// holds — optimizes to the cost and fingerprint the string-shaped sets gave
// (values recorded at the parent commit). In the two-table query the
// conjuncts on T2 sort last, so every eligibility and join-predicate probe
// crosses into the spill words.
func TestWideWhereClause(t *testing.T) {
	filters := func(n int, tables ...string) []string {
		var out []string
		for i := 0; i < n; i++ {
			tbl := tables[i%len(tables)]
			switch i % 3 {
			case 0:
				out = append(out, fmt.Sprintf("%s.ID > %d", tbl, i))
			case 1:
				out = append(out, fmt.Sprintf("%s.K <> %d", tbl, i))
			default:
				out = append(out, fmt.Sprintf("%s.J < %d", tbl, 1000+i))
			}
		}
		return out
	}
	cat := workload.ChainCatalog(2, 100000, 5000)
	for _, tc := range []struct {
		name, sql string
		cost      float64
		fp        string
	}{
		{"one table", "SELECT T1.ID, T1.PAD FROM T1 WHERE " + strings.Join(filters(100, "T1"), " AND "),
			2370, "cb1acaf99082e266"},
		{"two tables", "SELECT T1.ID, T2.PAD FROM T1, T2 WHERE T1.K = T2.J AND " + strings.Join(filters(99, "T1", "T2"), " AND "),
			2373.515, "630f86df36e24af6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := sqlparse.Parse(tc.sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			if g.Preds.Len() != 100 {
				t.Fatalf("parsed %d conjuncts, want 100", g.Preds.Len())
			}
			for _, par := range []int{1, 2} {
				res, err := New(cat, Options{Parallelism: par}).Optimize(g)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if got := res.Best.Props.Cost.Total; got != tc.cost || res.Best.Fingerprint() != tc.fp {
					t.Errorf("parallelism %d: best cost %v fingerprint %s, want %v %s",
						par, got, res.Best.Fingerprint(), tc.cost, tc.fp)
				}
				if got := res.Best.Props.Preds().Len(); got != 100 {
					t.Errorf("parallelism %d: best plan applies %d of 100 conjuncts", par, got)
				}
			}
		})
	}
}

// TestWideFromList: a FROM list past the enumerator's 30 is the enumerator's
// error (TestTooManyQuantifiers); one past the 64 a table-set word holds
// fails where the universe is built — an error, not a panic, either way.
func TestWideFromList(t *testing.T) {
	cat := workload.ChainCatalog(1, 10)
	from := func(n int) string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf("T1 Q%d", i))
		}
		return "SELECT Q0.ID FROM " + strings.Join(out, ", ")
	}
	g, err := sqlparse.Parse(from(64), cat)
	if err != nil {
		t.Fatalf("64 quantifiers fill the word exactly: %v", err)
	}
	if _, err := New(cat, Options{}).Optimize(g); err == nil || !strings.Contains(err.Error(), "exceeds the enumeration limit") {
		t.Errorf("64 quantifiers must reach the enumerator's limit, got %v", err)
	}
	if _, err := sqlparse.Parse(from(65), cat); err == nil || !strings.Contains(err.Error(), "65 quantifiers exceed") {
		t.Errorf("65 quantifiers must fail to parse, got %v", err)
	}
}
