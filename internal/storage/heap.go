// Package storage implements the stored-table substrate the query evaluator
// runs against: page-structured heap files addressed by tuple identifiers
// (TIDs), B-tree access methods keyed on column prefixes, and per-site stores
// with I/O accounting.
//
// The engine is in-memory but page-accurate: every page touched increments
// counters, so executed plans report the same I/O quantities the cost model
// estimates — which is what makes the estimated-vs-actual validation
// experiment (E11) possible without disks. This is the documented
// substitution for Starburst's storage component (see DESIGN.md).
package storage

import (
	"fmt"
	"sort"

	"stars/internal/catalog"
	"stars/internal/datum"
)

// TID identifies one stored tuple: page number and slot within the page. It
// is the "tuple identifier" pseudo-column indexes carry (Section 2.1).
type TID struct {
	Page int32
	Slot int32
}

// String renders the TID for debugging.
func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.Page, t.Slot) }

// Less orders TIDs in physical (page, slot) order; sorting TIDs before
// fetching turns random GETs into sequential ones.
func (t TID) Less(o TID) bool {
	if t.Page != o.Page {
		return t.Page < o.Page
	}
	return t.Slot < o.Slot
}

// Counters accumulates the I/O a store performs. The evaluator reads these
// to report actual cost. A Counters may carry a buffer-pool simulation (see
// AttachBuffer): page reads that hit the buffer are not counted, mirroring
// the cost model's assumption that structures fitting in BufferPages are
// re-read from memory.
type Counters struct {
	// HeapPageReads counts data-page reads (sequential scans + TID fetches).
	HeapPageReads int64
	// HeapPageWrites counts data-page writes (STORE of temps).
	HeapPageWrites int64
	// IndexPageReads counts B-tree node visits during probes and scans.
	IndexPageReads int64
	// IndexPageWrites counts B-tree node writes during index builds.
	IndexPageWrites int64
	// RowsRead counts tuples returned by scans and fetches.
	RowsRead int64
	// BufferHits counts page reads absorbed by the buffer pool.
	BufferHits int64

	buf *pageBuffer
}

// pageBuffer is a FIFO page cache keyed by an opaque page identity (heap
// file + page number, or B-tree node pointer).
type pageBuffer struct {
	cap   int
	seen  map[any]bool
	order []any
}

// AttachBuffer gives the counters a buffer pool of the given page capacity;
// capacity <= 0 detaches it.
func (c *Counters) AttachBuffer(capacity int) {
	if capacity <= 0 {
		c.buf = nil
		return
	}
	c.buf = &pageBuffer{cap: capacity, seen: map[any]bool{}}
}

// ClearBuffer empties the buffer pool (a cold cache), keeping its capacity.
func (c *Counters) ClearBuffer() {
	if c.buf != nil {
		c.buf.seen = map[any]bool{}
		c.buf.order = c.buf.order[:0]
	}
}

// hit records a page touch; it reports true when the page was resident.
func (b *pageBuffer) hit(key any) bool {
	if b.seen[key] {
		return true
	}
	if len(b.order) >= b.cap {
		evict := b.order[0]
		b.order = b.order[1:]
		delete(b.seen, evict)
	}
	b.seen[key] = true
	b.order = append(b.order, key)
	return false
}

// heapPageKey identifies one heap page for the buffer.
type heapPageKey struct {
	h    *HeapFile
	page int32
}

// readHeapPage accounts one heap-page read, consulting the buffer.
func (c *Counters) readHeapPage(h *HeapFile, page int32) {
	if c == nil {
		return
	}
	if c.buf != nil && c.buf.hit(heapPageKey{h, page}) {
		c.BufferHits++
		return
	}
	c.HeapPageReads++
}

// readIndexPage accounts one index-node read, consulting the buffer.
func (c *Counters) readIndexPage(node any) {
	if c == nil {
		return
	}
	if c.buf != nil && c.buf.hit(node) {
		c.BufferHits++
		return
	}
	c.IndexPageReads++
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.HeapPageReads += o.HeapPageReads
	c.HeapPageWrites += o.HeapPageWrites
	c.IndexPageReads += o.IndexPageReads
	c.IndexPageWrites += o.IndexPageWrites
	c.RowsRead += o.RowsRead
	c.BufferHits += o.BufferHits
}

// TotalPages returns all page touches, read or written, heap or index.
func (c *Counters) TotalPages() int64 {
	return c.HeapPageReads + c.HeapPageWrites + c.IndexPageReads + c.IndexPageWrites
}

// Sub returns the numeric counter deltas c - o; buffer-pool state is not
// carried. The evaluator uses it to attribute I/O to individual operators
// from before/after snapshots.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		HeapPageReads:   c.HeapPageReads - o.HeapPageReads,
		HeapPageWrites:  c.HeapPageWrites - o.HeapPageWrites,
		IndexPageReads:  c.IndexPageReads - o.IndexPageReads,
		IndexPageWrites: c.IndexPageWrites - o.IndexPageWrites,
		RowsRead:        c.RowsRead - o.RowsRead,
		BufferHits:      c.BufferHits - o.BufferHits,
	}
}

// HeapFile is a page-structured pile of rows. Pages hold a fixed number of
// slots derived from the schema's average row width, mirroring how the
// catalog derives page counts, so scans touch about as many pages as the
// cost model predicts.
type HeapFile struct {
	schema      []string
	rowsPerPage int
	pages       [][]datum.Row
}

// NewHeapFile creates an empty heap file for rows with the given column
// names and average row width in bytes.
func NewHeapFile(schema []string, rowWidth int) *HeapFile {
	if rowWidth <= 0 {
		rowWidth = 8 * len(schema)
		if rowWidth == 0 {
			rowWidth = 8
		}
	}
	rpp := catalog.PageSize / rowWidth
	if rpp < 1 {
		rpp = 1
	}
	return &HeapFile{schema: schema, rowsPerPage: rpp}
}

// Schema returns the column names of the stored rows.
func (h *HeapFile) Schema() []string { return h.schema }

// NumPages returns the number of allocated pages.
func (h *HeapFile) NumPages() int64 { return int64(len(h.pages)) }

// NumRows returns the number of stored rows.
func (h *HeapFile) NumRows() int64 {
	n := int64(0)
	for _, p := range h.pages {
		n += int64(len(p))
	}
	return n
}

// Insert appends a row and returns its TID. The write is counted against
// ctr if non-nil (one page write per newly filled page).
func (h *HeapFile) Insert(row datum.Row, ctr *Counters) TID {
	if len(row) != len(h.schema) {
		panic(fmt.Sprintf("storage: row arity %d != schema arity %d", len(row), len(h.schema)))
	}
	if len(h.pages) == 0 || len(h.pages[len(h.pages)-1]) >= h.rowsPerPage {
		h.pages = append(h.pages, make([]datum.Row, 0, h.rowsPerPage))
		if ctr != nil {
			ctr.HeapPageWrites++
		}
	}
	pi := len(h.pages) - 1
	h.pages[pi] = append(h.pages[pi], row)
	return TID{Page: int32(pi), Slot: int32(len(h.pages[pi]) - 1)}
}

// Fetch returns the row at tid, counting one page read. ok is false for
// dangling TIDs.
func (h *HeapFile) Fetch(tid TID, ctr *Counters) (datum.Row, bool) {
	if int(tid.Page) >= len(h.pages) {
		return nil, false
	}
	page := h.pages[tid.Page]
	if int(tid.Slot) >= len(page) {
		return nil, false
	}
	ctr.readHeapPage(h, tid.Page)
	if ctr != nil {
		ctr.RowsRead++
	}
	return page[tid.Slot], true
}

// Scan calls fn for every stored row in physical order, counting one page
// read per page. fn returning false stops the scan early.
func (h *HeapFile) Scan(ctr *Counters, fn func(TID, datum.Row) bool) {
	for pi, page := range h.pages {
		ctr.readHeapPage(h, int32(pi))
		for si, row := range page {
			if ctr != nil {
				ctr.RowsRead++
			}
			if !fn(TID{Page: int32(pi), Slot: int32(si)}, row) {
				return
			}
		}
	}
}

// HeapCursor iterates a heap file in physical order, counting one page read
// per page entered. Unlike Scan it is pull-based, which the executor's
// iterator model needs.
type HeapCursor struct {
	h    *HeapFile
	page int
	slot int
	ctr  *Counters
}

// Cursor returns a cursor positioned before the first row.
func (h *HeapFile) Cursor(ctr *Counters) *HeapCursor {
	return &HeapCursor{h: h, ctr: ctr}
}

// Next returns the next row, or ok=false at the end.
func (c *HeapCursor) Next() (TID, datum.Row, bool) {
	for c.page < len(c.h.pages) {
		if c.slot == 0 {
			c.ctr.readHeapPage(c.h, int32(c.page))
		}
		page := c.h.pages[c.page]
		if c.slot < len(page) {
			tid := TID{Page: int32(c.page), Slot: int32(c.slot)}
			row := page[c.slot]
			c.slot++
			if c.ctr != nil {
				c.ctr.RowsRead++
			}
			return tid, row, true
		}
		c.page++
		c.slot = 0
	}
	return TID{}, nil, false
}

// TableData is one stored table: its heap file plus any indexes.
type TableData struct {
	// Name is the table name.
	Name string
	// Heap holds the rows.
	Heap *HeapFile
	// Indexes maps access-path name to its B-tree.
	Indexes map[string]*BTree
}

// ColIndex returns the position of the named column in the heap schema, or
// -1.
func (t *TableData) ColIndex(col string) int {
	for i, c := range t.Heap.Schema() {
		if c == col {
			return i
		}
	}
	return -1
}

// Store is one site's collection of stored tables plus its I/O counters.
// Temporary tables created by STORE live here alongside base tables.
type Store struct {
	// Site names the site this store simulates.
	Site string
	// Counters accumulates the I/O performed against this store.
	Counters Counters

	tables map[string]*TableData
}

// NewStore creates an empty store for the named site.
func NewStore(site string) *Store {
	s := &Store{Site: site, tables: map[string]*TableData{}}
	s.Counters.AttachBuffer(catalog.BufferPages)
	return s
}

// CreateTable creates an empty table with the given schema and row width,
// replacing any existing table of that name.
func (s *Store) CreateTable(name string, schema []string, rowWidth int) *TableData {
	td := &TableData{Name: name, Heap: NewHeapFile(schema, rowWidth), Indexes: map[string]*BTree{}}
	s.tables[name] = td
	return td
}

// Table returns the named table, or nil.
func (s *Store) Table(name string) *TableData { return s.tables[name] }

// TableNames returns the stored table names, sorted.
func (s *Store) TableNames() []string {
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DropTable removes the named table if present.
func (s *Store) DropTable(name string) { delete(s.tables, name) }

// BuildIndex creates (or replaces) a B-tree index named idxName on the given
// key columns of the table, charging index page writes for the build.
func (s *Store) BuildIndex(table, idxName string, keyCols []string) (*BTree, error) {
	td := s.tables[table]
	if td == nil {
		return nil, fmt.Errorf("storage: build index on unknown table %q", table)
	}
	pos := make([]int, len(keyCols))
	for i, kc := range keyCols {
		p := td.ColIndex(kc)
		if p < 0 {
			return nil, fmt.Errorf("storage: index key column %q not in table %q", kc, table)
		}
		pos[i] = p
	}
	bt := NewBTree(len(keyCols))
	// One array backs every key; 3-index slices keep each from its neighbour.
	keys := make([]datum.Datum, int(td.Heap.NumRows())*len(pos))
	td.Heap.Scan(&s.Counters, func(tid TID, row datum.Row) bool {
		key := datum.Row(keys[:len(pos):len(pos)])
		keys = keys[len(pos):]
		for i, p := range pos {
			key[i] = row[p]
		}
		bt.Insert(key, tid, &s.Counters)
		return true
	})
	td.Indexes[idxName] = bt
	return bt, nil
}

// Cluster is the set of stores across all sites, plus network accounting for
// SHIP. A single-site configuration is a cluster with one store.
type Cluster struct {
	// Messages counts SHIP messages sent.
	Messages int64
	// BytesShipped counts payload bytes moved between sites.
	BytesShipped int64

	stores map[string]*Store
}

// NewCluster creates a cluster with stores for each named site. The empty
// site name is always present (it is the single-site default).
func NewCluster(sites ...string) *Cluster {
	c := &Cluster{stores: map[string]*Store{}}
	c.stores[""] = NewStore("")
	for _, s := range sites {
		if _, ok := c.stores[s]; !ok {
			c.stores[s] = NewStore(s)
		}
	}
	return c
}

// Store returns the store for the named site, creating it on first use.
func (c *Cluster) Store(site string) *Store {
	st, ok := c.stores[site]
	if !ok {
		st = NewStore(site)
		c.stores[site] = st
	}
	return st
}

// Ship records the movement of n rows of the given total byte size between
// sites; the executor calls it once per SHIPped batch.
func (c *Cluster) Ship(rows int64, bytes int64) {
	c.Messages++
	c.BytesShipped += bytes
	_ = rows
}

// TotalCounters sums the I/O counters across every site's store.
func (c *Cluster) TotalCounters() Counters {
	var out Counters
	for _, s := range c.stores {
		out.Add(s.Counters)
	}
	return out
}

// ResetCounters zeroes all I/O and network counters, keeping the data.
func (c *Cluster) ResetCounters() {
	for _, s := range c.stores {
		buf := s.Counters.buf
		s.Counters = Counters{buf: buf}
		s.Counters.ClearBuffer()
	}
	c.Messages = 0
	c.BytesShipped = 0
}
