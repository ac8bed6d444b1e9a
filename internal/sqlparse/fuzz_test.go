package sqlparse

import (
	"sort"
	"strings"
	"testing"

	"stars/internal/catalog"
	"stars/internal/workload"
)

// fuzzCatalog merges the tables of every corpus catalog, and corpusSQL
// renders every corpus query back into the dialect Parse reads: the seeds
// FuzzParse mutates.
func fuzzCatalog() (*catalog.Catalog, []string) {
	cat := catalog.New()
	var seeds []string
	for _, e := range workload.Corpus() {
		for _, t := range e.Cat.Tables {
			if cat.Table(t.Name) == nil {
				cat.AddTable(t)
			}
		}
		var sel, from, where []string
		for _, c := range e.Query.Select {
			sel = append(sel, c.String())
		}
		for _, q := range e.Query.Quants {
			from = append(from, q.Table+" "+q.Name)
		}
		for _, p := range e.Query.Preds.Slice() {
			where = append(where, p.String())
		}
		sql := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ")
		if len(where) > 0 {
			sql += " WHERE " + strings.Join(where, " AND ")
		}
		seeds = append(seeds, sql)
	}
	return cat, seeds
}

// FuzzParse drives Parse — lexer, parser, universe construction, Validate —
// with arbitrary bytes. It must never panic, must fail the same way twice,
// and a graph it does return must be one the optimizer can take as is:
// every name resolved, its universe covering the FROM list, and its WHERE
// clause canonical (key-sorted, duplicate-free).
func FuzzParse(f *testing.F) {
	cat, seeds := fuzzCatalog()
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add("SELECT * FROM EMP ORDER BY EMP.SAL")
	f.Add("SELECT E1.NAME FROM EMP AS E1, EMP E2 WHERE E1.DNO = E2.DNO AND E2.DNO = E1.DNO AND E1.SAL + 1 < E2.SAL * 2")
	f.Add("SELECT Z.NAME FROM EMP WHERE Z.DNO = 1")            // column of an unknown quantifier
	f.Add("SELECT EMP.NAME FROM EMP, EMP WHERE EMP.DNO = 1")   // duplicate quantifier
	f.Add("SELECT X.* FROM X")                                 // quantifier over an unknown table
	f.Add("SELECT T1.ID FROM T1" + strings.Repeat(", T1", 64)) // FROM wider than a table-set word
	f.Add("SELECT EMP.NAME FROM EMP WHERE EMP.DNO = 'unterminated")
	f.Add("\x00\xffSELECT")
	f.Fuzz(func(t *testing.T, sql string) {
		g, err := Parse(sql, cat)
		_, err2 := Parse(sql, cat)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("nondeterministic outcome: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}
		if err := g.Validate(cat); err != nil {
			t.Fatalf("Parse returned a graph that does not validate: %v", err)
		}
		if got := g.TableSet().Len(); got != len(g.Quants) || g.Universe() == nil {
			t.Fatalf("universe covers %d of %d quantifiers", got, len(g.Quants))
		}
		var keys []string
		for _, p := range g.Preds.Slice() {
			keys = append(keys, p.Key())
		}
		if !sort.StringsAreSorted(keys) || len(keys) != g.Preds.Len() {
			t.Fatalf("WHERE clause not in key order: %q", keys)
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				t.Fatalf("duplicate conjunct %q survived", keys[i])
			}
		}
	})
}
