// Package catalog models the system catalogs the optimizer reads: tables,
// columns with statistics, access paths (the paper's PATHS property), site
// placement for distributed queries, and storage-manager kinds (Section
// 4.5.2's TableAccess flavors). Catalogs are plain data — they load from and
// store to JSON — because the paper's whole premise is that optimizer inputs
// are data, not code.
package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"stars/internal/datum"
)

// StorageKind selects the storage manager for a table, which in turn selects
// the flavor of sequential ACCESS (Section 4.5.2, [LIND 87]).
type StorageKind string

// The supported storage-manager kinds.
const (
	// Heap is a physically-sequential pile of pages.
	Heap StorageKind = "heap"
	// BTreeStore keeps the table itself in a B-tree clustered on its
	// declared order.
	BTreeStore StorageKind = "btree"
)

// Column describes one column of a stored table together with the statistics
// the cost model's selectivity estimation uses.
type Column struct {
	// Name is the column name, unique within its table.
	Name string `json:"name"`
	// Type is the column's scalar kind.
	Type datum.Kind `json:"type"`
	// NDV is the number of distinct values (column cardinality); 0 means
	// unknown and estimation falls back to System-R defaults.
	NDV int64 `json:"ndv,omitempty"`
	// Lo and Hi bound the column's value range when known; they refine
	// range-predicate selectivity.
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`
	// Width is the average encoded width in bytes; 0 defaults per type.
	Width int `json:"width,omitempty"`
	// Skew, when > 0, makes the workload generator draw this column's
	// values from a Zipf distribution with exponent 1+Skew instead of
	// uniformly; the catalog's NDV still bounds the domain. Skewed data
	// stresses the uniformity assumptions of System-R selectivity
	// estimation.
	Skew float64 `json:"skew,omitempty"`
}

// AvgWidth returns the column's average width in bytes, defaulting by type.
func (c *Column) AvgWidth() int {
	if c.Width > 0 {
		return c.Width
	}
	switch c.Type {
	case datum.KindInt, datum.KindFloat:
		return 8
	case datum.KindBool:
		return 1
	default:
		return 16
	}
}

// AccessPath describes an index: an ordered list of key columns over a table
// (the paper's "ordered list of columns" PATHS element). Every index stores
// TIDs, so an index-only ACCESS yields the key columns plus the TID
// pseudo-column.
type AccessPath struct {
	// Name is the index name, unique within the catalog.
	Name string `json:"name"`
	// Table is the base table the index is defined on.
	Table string `json:"table"`
	// Cols is the ordered key-column list.
	Cols []string `json:"cols"`
	// Unique marks the index as enforcing key uniqueness.
	Unique bool `json:"unique,omitempty"`
	// Clustered marks the index as clustering the base table, making TID
	// fetches through it sequential rather than random.
	Clustered bool `json:"clustered,omitempty"`
	// Pages is the estimated leaf-page count; 0 derives from table stats.
	Pages int64 `json:"pages,omitempty"`
}

// Table describes a stored table: schema, statistics, placement, and its
// access paths.
type Table struct {
	// Name is the table name, unique within the catalog.
	Name string `json:"name"`
	// Site is where the table is stored ("" means the query site).
	Site string `json:"site,omitempty"`
	// StMgr is the storage-manager kind; empty defaults to Heap.
	StMgr StorageKind `json:"stmgr,omitempty"`
	// Cols is the ordered column list.
	Cols []*Column `json:"cols"`
	// Card is the estimated row count.
	Card int64 `json:"card"`
	// Pages is the estimated data-page count; 0 derives from Card and row
	// width.
	Pages int64 `json:"pages,omitempty"`
	// Order lists the columns the stored tuples are physically ordered by,
	// if any ("unknown" order is the empty list, as in Section 3.1).
	Order []string `json:"order,omitempty"`
	// Paths are the access paths defined on the table.
	Paths []*AccessPath `json:"paths,omitempty"`
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ColNames returns the table's column names in declaration order.
func (t *Table) ColNames() []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Name
	}
	return out
}

// RowWidth returns the average row width in bytes.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Cols {
		w += c.AvgWidth()
	}
	if w == 0 {
		w = 1
	}
	return w
}

// PageCount returns the data-page estimate, deriving it from cardinality and
// row width when the catalog does not record it.
func (t *Table) PageCount() int64 {
	if t.Pages > 0 {
		return t.Pages
	}
	perPage := int64(PageSize / t.RowWidth())
	if perPage < 1 {
		perPage = 1
	}
	p := (t.Card + perPage - 1) / perPage
	if p < 1 {
		p = 1
	}
	return p
}

// StorageKindOrDefault returns the storage manager, defaulting to Heap.
func (t *Table) StorageKindOrDefault() StorageKind {
	if t.StMgr == "" {
		return Heap
	}
	return t.StMgr
}

// PageSize is the byte capacity of one storage page, shared by the catalog's
// derived statistics, the storage engine, and the cost model.
const PageSize = 4096

// BufferPages is the per-site buffer-pool capacity in pages, shared by the
// storage engine's buffer simulation and the cost model's rescan accounting:
// structures that fit are re-read from memory, which is what makes repeated
// nested-loop probes of a small temp index cheap (Section 4.5.3's economics).
const BufferPages = 1024

// Catalog is the root of the system catalogs.
type Catalog struct {
	// Tables maps table name to its descriptor.
	Tables map[string]*Table `json:"tables"`
	// Sites lists the known sites; the empty catalog is single-site.
	Sites []string `json:"sites,omitempty"`
	// QuerySite is the site queries originate at; "" on single-site
	// catalogs.
	QuerySite string `json:"querySite,omitempty"`
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{Tables: map[string]*Table{}}
}

// AddTable registers t, replacing any previous table of the same name.
func (c *Catalog) AddTable(t *Table) *Catalog {
	c.Tables[t.Name] = t
	return c
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.Tables[name] }

// TableNames returns the catalog's table names, sorted.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.Tables))
	for n := range c.Tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Path returns the named access path and its table, or nils.
func (c *Catalog) Path(name string) (*AccessPath, *Table) {
	for _, t := range c.Tables {
		for _, p := range t.Paths {
			if p.Name == name {
				return p, t
			}
		}
	}
	return nil, nil
}

// SiteOf returns the site a table is stored at, defaulting to the query site.
func (c *Catalog) SiteOf(table string) string {
	t := c.Tables[table]
	if t == nil || t.Site == "" {
		return c.QuerySite
	}
	return t.Site
}

// AllSites returns σ of Section 4.2: the set of sites at which tables of the
// query are stored, plus the query site, for the given table names. On a
// single-site catalog it returns the query site alone.
func (c *Catalog) AllSites(tables []string) []string {
	seen := map[string]bool{c.QuerySite: true}
	for _, tn := range tables {
		seen[c.SiteOf(tn)] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// LocalQuery reports whether every listed table is stored at the query site
// — the guard on Section 4.2's PermutedJoin STAR.
func (c *Catalog) LocalQuery(tables []string) bool {
	for _, tn := range tables {
		if c.SiteOf(tn) != c.QuerySite {
			return false
		}
	}
	return true
}

// Validate checks internal consistency: no table, column or path is null,
// column references in orders and paths resolve, cardinalities are
// non-negative, path tables exist.
func (c *Catalog) Validate() error {
	for name, t := range c.Tables {
		if t == nil {
			return fmt.Errorf("catalog: table %q is null", name)
		}
		if t.Name != name {
			return fmt.Errorf("catalog: table map key %q != table name %q", name, t.Name)
		}
		if len(t.Cols) == 0 {
			return fmt.Errorf("catalog: table %q has no columns", name)
		}
		if t.Card < 0 {
			return fmt.Errorf("catalog: table %q has negative cardinality", name)
		}
		seen := map[string]bool{}
		for _, col := range t.Cols {
			if col == nil {
				return fmt.Errorf("catalog: table %q has a null column", name)
			}
			if seen[col.Name] {
				return fmt.Errorf("catalog: table %q duplicates column %q", name, col.Name)
			}
			seen[col.Name] = true
		}
		for _, oc := range t.Order {
			if t.Column(oc) == nil {
				return fmt.Errorf("catalog: table %q order column %q unknown", name, oc)
			}
		}
		pathNames := map[string]bool{}
		for _, p := range t.Paths {
			if p == nil {
				return fmt.Errorf("catalog: table %q has a null path", name)
			}
			if p.Table != t.Name {
				return fmt.Errorf("catalog: path %q on table %q claims table %q", p.Name, name, p.Table)
			}
			if pathNames[p.Name] {
				return fmt.Errorf("catalog: duplicate path name %q", p.Name)
			}
			pathNames[p.Name] = true
			if len(p.Cols) == 0 {
				return fmt.Errorf("catalog: path %q has no key columns", p.Name)
			}
			for _, pc := range p.Cols {
				if t.Column(pc) == nil {
					return fmt.Errorf("catalog: path %q key column %q unknown in table %q", p.Name, pc, name)
				}
			}
		}
	}
	return nil
}

// MarshalJSONIndent renders the catalog as pretty-printed JSON.
func (c *Catalog) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Save writes the catalog to a JSON file.
func (c *Catalog) Save(path string) error {
	b, err := c.MarshalJSONIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a catalog from a JSON file and validates it.
func Load(path string) (*Catalog, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

// Parse decodes a catalog from JSON bytes and validates it.
func Parse(b []byte) (*Catalog, error) {
	c := New()
	if err := json.Unmarshal(b, c); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if c.Tables == nil {
		c.Tables = map[string]*Table{}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
