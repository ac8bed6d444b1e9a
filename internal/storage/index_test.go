package storage_test

import (
	"testing"

	"stars/internal/storage"
	"stars/internal/workload"
)

// demoStore returns the store holding the seed-1 EMP/DEPT demo data.
func demoStore() *storage.Store {
	cl := storage.NewCluster()
	workload.PopulateEmpDept(cl, workload.EmpDept(), 1)
	return cl.Store("")
}

// TestEMPDNOShape pins the shape of the demo's clustering index, which the
// executor builds lazily on first use: its page count and height feed the
// index-probe page reads that analyze reports.
func TestEMPDNOShape(t *testing.T) {
	bt, err := demoStore().BuildIndex("EMP", "EMPDNO", []string{"DNO"})
	if err != nil {
		t.Fatal(err)
	}
	if bt.Pages() != 322 || bt.Height() != 3 || bt.Len() != 10000 {
		t.Fatalf("EMPDNO pages/height/len = %d/%d/%d", bt.Pages(), bt.Height(), bt.Len())
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	st := demoStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.BuildIndex("EMP", "EMPDNO", []string{"DNO"}); err != nil {
			b.Fatal(err)
		}
	}
}
