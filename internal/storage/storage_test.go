package storage

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"stars/internal/datum"
)

func TestHeapInsertFetchScan(t *testing.T) {
	h := NewHeapFile([]string{"a", "b"}, 16)
	var ctr Counters
	var tids []TID
	for i := int64(0); i < 1000; i++ {
		tids = append(tids, h.Insert(datum.Row{datum.NewInt(i), datum.NewInt(i * 2)}, &ctr))
	}
	if h.NumRows() != 1000 {
		t.Fatalf("rows = %d", h.NumRows())
	}
	// 4096/16 = 256 rows/page -> 4 pages.
	if h.NumPages() != 4 || ctr.HeapPageWrites != 4 {
		t.Fatalf("pages = %d, writes = %d", h.NumPages(), ctr.HeapPageWrites)
	}
	row, ok := h.Fetch(tids[500], &ctr)
	if !ok || row[0].Int() != 500 {
		t.Fatalf("fetch = %v, %v", row, ok)
	}
	if _, ok := h.Fetch(TID{Page: 99, Slot: 0}, &ctr); ok {
		t.Fatal("dangling TID must fail")
	}
	n := 0
	h.Scan(nil, func(tid TID, r datum.Row) bool {
		n++
		return true
	})
	if n != 1000 {
		t.Fatalf("scan saw %d rows", n)
	}
	// Early stop.
	n = 0
	h.Scan(nil, func(TID, datum.Row) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop saw %d", n)
	}
}

func TestHeapCursorCountsPagesOnce(t *testing.T) {
	h := NewHeapFile([]string{"a"}, 8)
	for i := int64(0); i < 1500; i++ {
		h.Insert(datum.Row{datum.NewInt(i)}, nil)
	}
	var ctr Counters
	cur := h.Cursor(&ctr)
	n := 0
	for {
		_, _, ok := cur.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 1500 {
		t.Fatalf("cursor saw %d", n)
	}
	// 4096/8 = 512 rows/page -> 3 pages.
	if ctr.HeapPageReads != 3 {
		t.Fatalf("page reads = %d, want 3", ctr.HeapPageReads)
	}
	if ctr.RowsRead != 1500 {
		t.Fatalf("rows read = %d", ctr.RowsRead)
	}
}

// TestBTreeMatchesSortedModel property-checks the B-tree against a sorted
// slice reference on random keys (with duplicates).
func TestBTreeMatchesSortedModel(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		r := rand.New(rand.NewSource(seed))
		bt := NewBTree(1)
		var model []int64
		for i := 0; i < n; i++ {
			k := int64(r.Intn(50)) // plenty of duplicates
			bt.Insert(datum.Row{datum.NewInt(k)}, TID{Page: int32(i)}, nil)
			model = append(model, k)
		}
		sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
		if bt.Len() != int64(n) {
			return false
		}
		// Full scan order matches the model.
		var got []int64
		bt.ScanAll(nil, func(e Entry) bool {
			got = append(got, e.Key[0].Int())
			return true
		})
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != model[i] {
				return false
			}
		}
		// Prefix scans return exactly the duplicates of a key.
		probe := model[r.Intn(n)]
		want := 0
		for _, k := range model {
			if k == probe {
				want++
			}
		}
		cnt := 0
		bt.ScanPrefix(datum.Row{datum.NewInt(probe)}, nil, func(e Entry) bool {
			if e.Key[0].Int() != probe {
				return false
			}
			cnt++
			return true
		})
		return cnt == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeRangeScan(t *testing.T) {
	bt := NewBTree(1)
	for i := int64(0); i < 1000; i++ {
		bt.Insert(datum.Row{datum.NewInt(i)}, TID{Page: int32(i)}, nil)
	}
	var got []int64
	bt.ScanRange(datum.Row{datum.NewInt(100)}, datum.Row{datum.NewInt(110)}, nil, func(e Entry) bool {
		got = append(got, e.Key[0].Int())
		return true
	})
	if len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Fatalf("range = %v", got)
	}
	// Open bounds.
	n := 0
	bt.ScanRange(nil, datum.Row{datum.NewInt(9)}, nil, func(Entry) bool { n++; return true })
	if n != 10 {
		t.Fatalf("<=9 saw %d", n)
	}
	n = 0
	bt.ScanRange(datum.Row{datum.NewInt(990)}, nil, nil, func(Entry) bool { n++; return true })
	if n != 10 {
		t.Fatalf(">=990 saw %d", n)
	}
}

func TestBTreeCompositeKeyPrefix(t *testing.T) {
	bt := NewBTree(2)
	for i := int64(0); i < 100; i++ {
		bt.Insert(datum.Row{datum.NewInt(i % 10), datum.NewInt(i)}, TID{Page: int32(i)}, nil)
	}
	n := 0
	bt.ScanPrefix(datum.Row{datum.NewInt(3)}, nil, func(e Entry) bool {
		if e.Key[0].Int() != 3 {
			t.Fatalf("wrong group: %v", e.Key)
		}
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("prefix group = %d", n)
	}
}

func TestBTreeGrowsHeight(t *testing.T) {
	bt := NewBTree(1)
	for i := int64(0); i < 100000; i++ {
		bt.Insert(datum.Row{datum.NewInt(i)}, TID{}, nil)
	}
	if bt.Height() < 3 {
		t.Errorf("height = %d for 100k entries", bt.Height())
	}
	if bt.Pages() < int64(100000/btreeFanout) {
		t.Errorf("pages = %d", bt.Pages())
	}
}

func TestBufferAbsorbsRepeatedReads(t *testing.T) {
	h := NewHeapFile([]string{"a"}, 8)
	for i := int64(0); i < 600; i++ { // 2 pages
		h.Insert(datum.Row{datum.NewInt(i)}, nil)
	}
	var ctr Counters
	ctr.AttachBuffer(16)
	h.Scan(&ctr, func(TID, datum.Row) bool { return true })
	first := ctr.HeapPageReads
	h.Scan(&ctr, func(TID, datum.Row) bool { return true })
	if ctr.HeapPageReads != first {
		t.Fatalf("second scan of a buffered file must be free: %d -> %d", first, ctr.HeapPageReads)
	}
	if ctr.BufferHits == 0 {
		t.Fatal("buffer hits must be counted")
	}
	// A cold buffer charges again.
	ctr.ClearBuffer()
	h.Scan(&ctr, func(TID, datum.Row) bool { return true })
	if ctr.HeapPageReads != 2*first {
		t.Fatalf("cold rescan must pay: %d", ctr.HeapPageReads)
	}
}

func TestBufferEvicts(t *testing.T) {
	h := NewHeapFile([]string{"a"}, 8)
	for i := int64(0); i < 512*4; i++ { // 4 pages of 512 rows
		h.Insert(datum.Row{datum.NewInt(i)}, nil)
	}
	var ctr Counters
	ctr.AttachBuffer(2) // smaller than the file
	h.Scan(&ctr, func(TID, datum.Row) bool { return true })
	h.Scan(&ctr, func(TID, datum.Row) bool { return true })
	// With FIFO eviction and a sequential scan larger than the buffer,
	// every page read misses.
	if ctr.HeapPageReads != 8 {
		t.Fatalf("expected 8 misses, got %d", ctr.HeapPageReads)
	}
}

func TestStoreAndIndexBuild(t *testing.T) {
	s := NewStore("X")
	td := s.CreateTable("T", []string{"k", "v"}, 16)
	for i := int64(0); i < 100; i++ {
		td.Heap.Insert(datum.Row{datum.NewInt(i % 10), datum.NewInt(i)}, &s.Counters)
	}
	bt, err := s.BuildIndex("T", "T_k", []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if bt.Len() != 100 {
		t.Fatalf("index entries = %d", bt.Len())
	}
	if s.Counters.IndexPageWrites == 0 {
		t.Error("index build must charge writes")
	}
	if _, err := s.BuildIndex("NOPE", "x", []string{"k"}); err == nil {
		t.Error("unknown table must fail")
	}
	if _, err := s.BuildIndex("T", "x", []string{"nope"}); err == nil {
		t.Error("unknown key column must fail")
	}
	if td.ColIndex("v") != 1 || td.ColIndex("nope") != -1 {
		t.Error("ColIndex")
	}
}

func TestStoreTempNamesAndDrop(t *testing.T) {
	s := NewStore("")
	s.CreateTable("T", []string{"a"}, 8)
	if len(s.TableNames()) != 1 {
		t.Error("table registered")
	}
	s.DropTable("T")
	if s.Table("T") != nil {
		t.Error("drop")
	}
}

func TestClusterAccounting(t *testing.T) {
	c := NewCluster("A", "B")
	c.Store("A").Counters.HeapPageReads = 5
	c.Store("B").Counters.HeapPageReads = 7
	c.Ship(10, 4096)
	tot := c.TotalCounters()
	if tot.HeapPageReads != 12 {
		t.Fatalf("total reads = %d", tot.HeapPageReads)
	}
	if c.Messages != 1 || c.BytesShipped != 4096 {
		t.Fatal("ship accounting")
	}
	c.ResetCounters()
	if c.TotalCounters().HeapPageReads != 0 || c.Messages != 0 {
		t.Fatal("reset")
	}
	// The default site store always exists.
	if NewCluster().Store("") == nil {
		t.Fatal("default store")
	}
	// Lazily created stores work.
	if c.Store("C") == nil {
		t.Fatal("lazy store")
	}
}

func TestTIDOrdering(t *testing.T) {
	a := TID{Page: 1, Slot: 5}
	b := TID{Page: 2, Slot: 0}
	c := TID{Page: 1, Slot: 6}
	if !a.Less(b) || !a.Less(c) || b.Less(a) {
		t.Error("TID order is (page, slot)")
	}
	if a.String() != "(1,5)" {
		t.Errorf("String = %s", a.String())
	}
}

// TestInsertArityPanics guards the heap's arity invariant.
func TestInsertArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch must panic")
		}
	}()
	NewHeapFile([]string{"a", "b"}, 16).Insert(datum.Row{datum.NewInt(1)}, nil)
}

// TestKeyCmpAgreesWithCompareRows checks keyCmp against CompareRows over
// the keys' common length, on keys with NULLs, mixed kinds and unequal
// lengths.
func TestKeyCmpAgreesWithCompareRows(t *testing.T) {
	vals := []datum.Datum{
		datum.Null, datum.NewInt(-1), datum.NewInt(3), datum.NewFloat(2.5), datum.NewFloat(3),
		datum.NewString(""), datum.NewString("a"), datum.NewBool(false), datum.NewBool(true),
	}
	keys := []datum.Row{{}}
	for _, a := range vals {
		keys = append(keys, datum.Row{a})
		for _, b := range vals {
			keys = append(keys, datum.Row{a, b})
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			idx := []int{}
			for i := 0; i < len(a) && i < len(b); i++ {
				idx = append(idx, i)
			}
			if got, want := keyCmp(a, b), datum.CompareRows(a, b, idx); got != want {
				t.Fatalf("keyCmp(%v, %v) = %d, CompareRows = %d", a, b, got, want)
			}
		}
	}
}

func TestKeyCmpAllocatesNothing(t *testing.T) {
	a := datum.Row{datum.NewInt(7), datum.NewString("x")}
	b := datum.Row{datum.NewInt(7), datum.NewString("y")}
	var c int
	if n := testing.AllocsPerRun(100, func() { c += keyCmp(a, b) }); n != 0 {
		t.Fatalf("keyCmp allocates %v per call", n)
	}
}
