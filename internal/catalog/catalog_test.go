package catalog

import (
	"strings"
	"testing"

	"stars/internal/datum"
)

func demo() *Catalog {
	cat := New()
	cat.Sites = []string{"A", "B"}
	cat.QuerySite = "A"
	cat.AddTable(&Table{
		Name: "T", Site: "B",
		Cols: []*Column{
			{Name: "X", Type: datum.KindInt, NDV: 100},
			{Name: "S", Type: datum.KindString, Width: 20},
		},
		Card:  1000,
		Order: []string{"X"},
		Paths: []*AccessPath{{Name: "TX", Table: "T", Cols: []string{"X"}}},
	})
	cat.AddTable(&Table{
		Name: "U",
		Cols: []*Column{{Name: "Y", Type: datum.KindInt}},
		Card: 10,
	})
	return cat
}

func TestValidateOK(t *testing.T) {
	if err := demo().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		wreck func(*Catalog)
		want  string
	}{
		{"no columns", func(c *Catalog) { c.Table("T").Cols = nil }, "no columns"},
		{"negative card", func(c *Catalog) { c.Table("T").Card = -1 }, "negative"},
		{"dup column", func(c *Catalog) {
			tb := c.Table("T")
			tb.Cols = append(tb.Cols, &Column{Name: "X"})
		}, "duplicates column"},
		{"bad order col", func(c *Catalog) { c.Table("T").Order = []string{"NOPE"} }, "order column"},
		{"path on wrong table", func(c *Catalog) { c.Table("T").Paths[0].Table = "U" }, "claims table"},
		{"path bad col", func(c *Catalog) { c.Table("T").Paths[0].Cols = []string{"NOPE"} }, "key column"},
		{"path no cols", func(c *Catalog) { c.Table("T").Paths[0].Cols = nil }, "no key columns"},
		{"map key mismatch", func(c *Catalog) { c.Tables["Z"] = c.Table("T") }, "map key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := demo()
			tc.wreck(c)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := demo()
	b, err := c.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Tables) != 2 || c2.QuerySite != "A" {
		t.Fatalf("round trip lost data: %+v", c2)
	}
	tb := c2.Table("T")
	if tb.Card != 1000 || tb.Site != "B" || len(tb.Paths) != 1 || tb.Paths[0].Cols[0] != "X" {
		t.Fatalf("table T mangled: %+v", tb)
	}
	if tb.Column("S").AvgWidth() != 20 {
		t.Error("column width lost")
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	if _, err := Parse([]byte(`{"tables":{"T":{"name":"T","cols":[],"card":1}}}`)); err == nil {
		t.Fatal("columnless table must fail validation")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Fatal("garbage must fail")
	}
}

// TestParseRejectsNulls: a null table, column or path in outside input is a
// validation error, not a nil dereference.
func TestParseRejectsNulls(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"null table", `{"tables":{"T":null}}`, "table \"T\" is null"},
		{"null column", `{"tables":{"T":{"name":"T","cols":[{"name":"X"},null],"card":1}}}`, "null column"},
		{"null path", `{"tables":{"T":{"name":"T","cols":[{"name":"X"}],"card":1,"paths":[null]}}}`, "null path"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Parse([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v (catalog %+v)", tc.want, err, c)
			}
		})
	}
}

func TestDerivedStats(t *testing.T) {
	tb := demo().Table("T")
	if got := tb.RowWidth(); got != 28 {
		t.Errorf("row width = %d, want 28", got)
	}
	// 4096/28 = 146 rows per page; 1000 rows -> 7 pages.
	if got := tb.PageCount(); got != 7 {
		t.Errorf("pages = %d, want 7", got)
	}
	tb.Pages = 99
	if tb.PageCount() != 99 {
		t.Error("explicit page count must win")
	}
	if demo().Table("U").PageCount() < 1 {
		t.Error("page count has a floor of 1")
	}
}

func TestAvgWidthDefaults(t *testing.T) {
	cases := map[datum.Kind]int{
		datum.KindInt: 8, datum.KindFloat: 8, datum.KindBool: 1, datum.KindString: 16,
	}
	for k, want := range cases {
		c := &Column{Type: k}
		if c.AvgWidth() != want {
			t.Errorf("%s width default = %d, want %d", k, c.AvgWidth(), want)
		}
	}
}

func TestSiteHelpers(t *testing.T) {
	c := demo()
	if c.SiteOf("T") != "B" {
		t.Error("T is at B")
	}
	if c.SiteOf("U") != "A" {
		t.Error("U defaults to the query site")
	}
	if c.SiteOf("missing") != "A" {
		t.Error("unknown tables default to the query site")
	}
	sites := c.AllSites([]string{"T", "U"})
	if len(sites) != 2 || sites[0] != "A" || sites[1] != "B" {
		t.Errorf("AllSites = %v", sites)
	}
	if c.LocalQuery([]string{"T"}) {
		t.Error("T is remote")
	}
	if !c.LocalQuery([]string{"U"}) {
		t.Error("U is local")
	}
}

func TestPathLookup(t *testing.T) {
	c := demo()
	p, tb := c.Path("TX")
	if p == nil || tb.Name != "T" {
		t.Fatal("path TX must resolve")
	}
	if p2, _ := c.Path("missing"); p2 != nil {
		t.Fatal("unknown path must be nil")
	}
}

func TestTableNamesSorted(t *testing.T) {
	got := demo().TableNames()
	if len(got) != 2 || got[0] != "T" || got[1] != "U" {
		t.Errorf("names = %v", got)
	}
}

func TestStorageKindDefault(t *testing.T) {
	tb := &Table{}
	if tb.StorageKindOrDefault() != Heap {
		t.Error("default storage kind is heap")
	}
	tb.StMgr = BTreeStore
	if tb.StorageKindOrDefault() != BTreeStore {
		t.Error("explicit kind wins")
	}
}
