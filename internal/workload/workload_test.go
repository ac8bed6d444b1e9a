package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"stars/internal/datum"
	"stars/internal/expr"
	"stars/internal/query"
	"stars/internal/storage"
)

func TestGeneratedCatalogsValidate(t *testing.T) {
	for _, cat := range []interface{ Validate() error }{
		EmpDept(), ChainCatalog(5, 100, 50), StarCatalog(3, 1000, 20),
	} {
		if err := cat.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGeneratedQueriesValidate(t *testing.T) {
	if err := Figure1Query().Validate(EmpDept()); err != nil {
		t.Fatal(err)
	}
	if err := ChainQuery(4).Validate(ChainCatalog(4, 100)); err != nil {
		t.Fatal(err)
	}
	if err := StarQuery(3).Validate(StarCatalog(3, 1000, 20)); err != nil {
		t.Fatal(err)
	}
}

func TestChainQueryShape(t *testing.T) {
	g := ChainQuery(4)
	if len(g.Quants) != 4 || g.Preds.Len() != 3 {
		t.Fatalf("chain 4: %d quants, %d preds", len(g.Quants), g.Preds.Len())
	}
	// Adjacent tables connected, ends not.
	if !g.Connected(g.Universe().Tables("T1"), g.Universe().Tables("T2")) {
		t.Error("T1-T2 connected")
	}
	if g.Connected(g.Universe().Tables("T1"), g.Universe().Tables("T3")) {
		t.Error("T1-T3 disconnected")
	}
}

func TestPopulateMatchesCatalog(t *testing.T) {
	cat := ChainCatalog(2, 500, 100)
	cl := storage.NewCluster()
	Populate(cl, cat, 1)
	td := cl.Store("").Table("T1")
	if td == nil || td.Heap.NumRows() != 500 {
		t.Fatalf("T1 rows = %v", td.Heap.NumRows())
	}
	if cl.Store("").Table("T2").Heap.NumRows() != 100 {
		t.Fatal("T2 rows")
	}
	// Counters were reset after loading.
	if cl.TotalCounters().HeapPageWrites != 0 {
		t.Error("populate must reset counters")
	}
}

func TestPopulateIsDeterministic(t *testing.T) {
	cat := ChainCatalog(1, 50)
	c1, c2 := storage.NewCluster(), storage.NewCluster()
	Populate(c1, cat, 42)
	Populate(c2, cat, 42)
	g := query.MustNew([]query.Quantifier{{Name: "T1", Table: "T1"}})
	r1 := Oracle(c1, cat, g)
	r2 := Oracle(c2, cat, g)
	if len(r1) != 50 || len(r1) != len(r2) {
		t.Fatal("sizes")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
	c3 := storage.NewCluster()
	Populate(c3, cat, 43)
	r3 := Oracle(c3, cat, g)
	same := true
	for i := range r1 {
		if r1[i] != r3[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestPopulateRespectsDeclaredOrder(t *testing.T) {
	cat := ChainCatalog(1, 300)
	cat.Table("T1").Order = []string{"J"}
	cl := storage.NewCluster()
	Populate(cl, cat, 9)
	var last int64 = -1 << 62
	cl.Store("").Table("T1").Heap.Scan(nil, func(_ storage.TID, r datum.Row) bool {
		v := r[1].Int() // J is the second column
		if v < last {
			t.Fatal("rows not in declared order")
		}
		last = v
		return true
	})
}

func TestPopulateStringWidths(t *testing.T) {
	cat := ChainCatalog(1, 10)
	cl := storage.NewCluster()
	Populate(cl, cat, 1)
	cl.Store("").Table("T1").Heap.Scan(nil, func(_ storage.TID, r datum.Row) bool {
		// PAD is declared 32 bytes wide; datum width = len+1.
		if r[3].Width() != 32 {
			t.Fatalf("pad width = %d", r[3].Width())
		}
		return true
	})
}

func TestOracleManualCrossCheck(t *testing.T) {
	// A tiny hand-built instance with a known answer.
	cat := ChainCatalog(2, 3, 3)
	cl := storage.NewCluster()
	st := cl.Store("")
	t1 := st.CreateTable("T1", []string{"ID", "J", "K", "PAD"}, 32)
	t2 := st.CreateTable("T2", []string{"ID", "J", "K", "PAD"}, 32)
	row := func(id, j, k int64) datum.Row {
		return datum.Row{datum.NewInt(id), datum.NewInt(j), datum.NewInt(k), datum.NewString("p")}
	}
	// T1.K values: 1, 2, 2; T2.J values: 2, 2, 3 -> join on K=J gives 2*2=4 rows.
	t1.Heap.Insert(row(1, 0, 1), nil)
	t1.Heap.Insert(row(2, 0, 2), nil)
	t1.Heap.Insert(row(3, 0, 2), nil)
	t2.Heap.Insert(row(10, 2, 0), nil)
	t2.Heap.Insert(row(11, 2, 0), nil)
	t2.Heap.Insert(row(12, 3, 0), nil)

	got := Oracle(cl, cat, ChainQuery(2))
	if len(got) != 4 {
		t.Fatalf("oracle rows = %d, want 4: %v", len(got), got)
	}
}

func TestRenderRowsMatchesOracleEncoding(t *testing.T) {
	cat := ChainCatalog(1, 5)
	cl := storage.NewCluster()
	Populate(cl, cat, 2)
	g := query.MustNew([]query.Quantifier{{Name: "T1", Table: "T1"}})
	g.Select = []expr.ColID{{Table: "T1", Col: "ID"}, {Table: "T1", Col: "J"}}
	want := Oracle(cl, cat, g)
	// Read the rows directly and render them through RenderRows.
	var rows []datum.Row
	schema := []expr.ColID{
		{Table: "T1", Col: "ID"}, {Table: "T1", Col: "J"},
		{Table: "T1", Col: "K"}, {Table: "T1", Col: "PAD"},
	}
	cl.Store("").Table("T1").Heap.Scan(nil, func(_ storage.TID, r datum.Row) bool {
		rows = append(rows, r)
		return true
	})
	got := RenderRows(schema, rows, g.Select)
	if len(got) != len(want) {
		t.Fatalf("%d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: %q vs %q", i, got[i], want[i])
		}
	}
}

func TestPopulateEmpDeptHasHaas(t *testing.T) {
	cat := EmpDept()
	cl := storage.NewCluster()
	PopulateEmpDept(cl, cat, 5)
	found := false
	cl.Store("").Table("DEPT").Heap.Scan(nil, func(_ storage.TID, r datum.Row) bool {
		if r[1].Kind() == datum.KindString && r[1].Str() == "Haas" {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("department managed by Haas must exist")
	}
	// EMP is physically ordered by DNO (clustering declared in the catalog).
	var last int64 = -1
	cl.Store("").Table("EMP").Heap.Scan(nil, func(_ storage.TID, r datum.Row) bool {
		if r[1].Int() < last {
			t.Fatal("EMP not clustered by DNO")
		}
		last = r[1].Int()
		return true
	})
}

// heapDigest hashes every (TID, row) of a heap in physical order with
// FNV-64a: the TID's page and slot, then each datum's kind and rendering.
func heapDigest(h *storage.HeapFile) uint64 {
	d := fnv.New64a()
	var buf [8]byte
	h.Scan(nil, func(tid storage.TID, r datum.Row) bool {
		binary.LittleEndian.PutUint32(buf[:4], uint32(tid.Page))
		binary.LittleEndian.PutUint32(buf[4:], uint32(tid.Slot))
		d.Write(buf[:])
		for _, v := range r {
			d.Write([]byte{byte(v.Kind())})
			d.Write([]byte(v.String()))
			d.Write([]byte{0})
		}
		return true
	})
	return d.Sum64()
}

// TestPopulateEmpDeptPinned pins the demo data byte for byte: the digests
// were taken from the sort-based generator, so any rewrite of
// PopulateEmpDept must lay out DEPT and EMP exactly as it did.
func TestPopulateEmpDeptPinned(t *testing.T) {
	want := map[int64][2]uint64{
		1: {0x36ae77bcccb28e3e, 0x75b9a8b56789ff8d},
		3: {0x842369ee01b922d8, 0x19b5fccbcebd4aea},
		5: {0xa2cab55e8660eb67, 0x03e42af9241b4b84},
	}
	for seed, w := range want {
		cat := EmpDept()
		cl := storage.NewCluster()
		PopulateEmpDept(cl, cat, seed)
		dept, emp := cl.Store("").Table("DEPT").Heap, cl.Store("").Table("EMP").Heap
		if got := [2]uint64{heapDigest(dept), heapDigest(emp)}; got != w {
			t.Errorf("seed %d: DEPT/EMP digests = %#x, %#x; want %#x, %#x", seed, got[0], got[1], w[0], w[1])
		}
		var last int64 = -1
		seen := make([]bool, cat.Table("EMP").Card)
		emp.Scan(nil, func(_ storage.TID, r datum.Row) bool {
			if dno := r[1].Int(); dno < last {
				t.Fatalf("seed %d: EMP DNO %d follows %d", seed, dno, last)
			} else {
				last = dno
			}
			eno := r[0].Int()
			if eno < 0 || eno >= int64(len(seen)) || seen[eno] {
				t.Fatalf("seed %d: ENO %d out of range or repeated", seed, eno)
			}
			seen[eno] = true
			return true
		})
		for eno, ok := range seen {
			if !ok {
				t.Fatalf("seed %d: ENO %d missing", seed, eno)
			}
		}
	}
}

func TestPopulateZipfSkew(t *testing.T) {
	cat := ChainCatalog(1, 5000)
	cat.Table("T1").Column("J").Skew = 0.5
	cl := storage.NewCluster()
	Populate(cl, cat, 4)
	counts := map[int64]int{}
	cl.Store("").Table("T1").Heap.Scan(nil, func(_ storage.TID, r datum.Row) bool {
		counts[r[1].Int()]++
		return true
	})
	// Zipf concentrates mass on the smallest values: value 0 must be far
	// more frequent than the uniform expectation (5000/500 = 10).
	if counts[0] < 100 {
		t.Fatalf("value 0 count = %d; skew not applied", counts[0])
	}
	// Deterministic for a fixed seed.
	cl2 := storage.NewCluster()
	Populate(cl2, cat, 4)
	counts2 := map[int64]int{}
	cl2.Store("").Table("T1").Heap.Scan(nil, func(_ storage.TID, r datum.Row) bool {
		counts2[r[1].Int()]++
		return true
	})
	if counts[0] != counts2[0] {
		t.Fatal("skewed generation must stay deterministic")
	}
}

func BenchmarkPopulateEmpDept(b *testing.B) {
	cat := EmpDept()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PopulateEmpDept(storage.NewCluster(), cat, 1)
	}
}
