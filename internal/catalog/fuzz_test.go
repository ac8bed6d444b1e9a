package catalog_test

import (
	"bytes"
	"testing"

	"stars/internal/catalog"
	"stars/internal/workload"
)

// FuzzCatalogParse drives Parse with arbitrary bytes. Invariants: no panic
// on any input, and an accepted catalog round-trips — MarshalJSONIndent
// renders JSON that Parse accepts again and that renders back to the same
// bytes.
func FuzzCatalogParse(f *testing.F) {
	f.Add([]byte(`{"tables":{"T":null}}`))
	f.Add([]byte(`{"tables":{"T":{"name":"T","cols":[{"name":"X"},null],"card":1}}}`))
	f.Add([]byte(`{"tables":{"T":{"name":"T","cols":[{"name":"X"}],"card":1,"paths":[null]}}}`))
	empDept, err := workload.EmpDept().MarshalJSONIndent()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empDept)
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := catalog.Parse(in)
		if err != nil {
			return
		}
		out, err := c.MarshalJSONIndent()
		if err != nil {
			t.Fatalf("accepted catalog does not marshal: %v", err)
		}
		c2, err := catalog.Parse(out)
		if err != nil {
			t.Fatalf("marshalled catalog rejected: %v\n%s", err, out)
		}
		again, err := c2.MarshalJSONIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("round trip changed the catalog:\n%s\n---\n%s", out, again)
		}
	})
}
