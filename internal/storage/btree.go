package storage

import (
	"stars/internal/datum"
)

// btreeFanout is the maximum number of entries per B-tree node. Each node
// visit counts as one index page read, so the fanout also calibrates the
// index-depth component of the cost model.
const btreeFanout = 64

// Entry is one B-tree leaf entry: a key (one datum per key column) and the
// TID of the indexed tuple. Duplicate keys are permitted.
type Entry struct {
	Key datum.Row
	TID TID
}

// BTree is an in-memory B+-tree over fixed-arity keys with duplicate
// support. It is the access method behind the catalog's AccessPaths and
// behind dynamically created indexes (Section 4.5.3).
type BTree struct {
	keyLen int
	root   *btreeNode
	height int
	size   int64
	nodes  int64
}

type btreeNode struct {
	leaf     bool
	entries  []Entry      // leaf payload
	keys     []datum.Row  // internal separators: keys[i] is min key of children[i+1]
	children []*btreeNode // internal fan-out
	next     *btreeNode   // leaf chaining for range scans
}

// NewBTree creates an empty tree over keys of keyLen columns.
func NewBTree(keyLen int) *BTree {
	leaf := &btreeNode{leaf: true}
	return &BTree{keyLen: keyLen, root: leaf, height: 1, nodes: 1}
}

// Len returns the number of stored entries.
func (b *BTree) Len() int64 { return b.size }

// Pages returns the number of nodes, which the cost model treats as the
// index's page count.
func (b *BTree) Pages() int64 { return b.nodes }

// Height returns the tree height (1 for a lone leaf).
func (b *BTree) Height() int { return b.height }

// keyCmp compares two keys column by column over their common length, so
// a full key compares equal to each of its prefixes.
func keyCmp(a, b datum.Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Less(b[i]) {
			return -1
		}
		if b[i].Less(a[i]) {
			return 1
		}
	}
	return 0
}

// Insert adds an entry, counting index page writes along the root-to-leaf
// path against ctr.
func (b *BTree) Insert(key datum.Row, tid TID, ctr *Counters) {
	if len(key) != b.keyLen {
		panic("storage: btree key arity mismatch")
	}
	split, sepKey, right := b.insertInto(b.root, Entry{Key: key, TID: tid}, ctr)
	if split {
		newRoot := &btreeNode{
			keys:     []datum.Row{sepKey},
			children: []*btreeNode{b.root, right},
		}
		b.root = newRoot
		b.height++
		b.nodes++
		if ctr != nil {
			ctr.IndexPageWrites++
		}
	}
	b.size++
}

func (b *BTree) insertInto(n *btreeNode, e Entry, ctr *Counters) (split bool, sepKey datum.Row, right *btreeNode) {
	if ctr != nil {
		ctr.IndexPageWrites++
	}
	if n.leaf {
		// Find insertion point (after equal keys, keeping duplicates in
		// insertion order).
		lo, hi := 0, len(n.entries)
		for lo < hi {
			mid := (lo + hi) / 2
			if keyCmp(n.entries[mid].Key, e.Key) <= 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		n.entries = append(n.entries, Entry{})
		copy(n.entries[lo+1:], n.entries[lo:])
		n.entries[lo] = e
		if len(n.entries) <= btreeFanout {
			return false, nil, nil
		}
		mid := len(n.entries) / 2
		rightNode := &btreeNode{leaf: true, entries: append([]Entry(nil), n.entries[mid:]...)}
		n.entries = n.entries[:mid]
		rightNode.next = n.next
		n.next = rightNode
		b.nodes++
		return true, rightNode.entries[0].Key, rightNode
	}
	// Internal: route to child.
	ci := n.route(e.Key)
	childSplit, childSep, childRight := b.insertInto(n.children[ci], e, ctr)
	if !childSplit {
		return false, nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = childSep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = childRight
	if len(n.children) <= btreeFanout {
		return false, nil, nil
	}
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	rightNode := &btreeNode{
		keys:     append([]datum.Row(nil), n.keys[mid+1:]...),
		children: append([]*btreeNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	b.nodes++
	return true, sep, rightNode
}

// route returns the child index an exact key descends into (leftmost among
// duplicates).
func (n *btreeNode) route(key datum.Row) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keyCmp(n.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// routePrefixLow returns the child index where entries matching the prefix
// can first occur.
func (n *btreeNode) routePrefixLow(prefix datum.Row) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keyCmp(n.keys[mid], prefix) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ScanPrefix calls fn for every entry whose key begins with prefix, in key
// order, counting node visits as index page reads. An empty prefix scans the
// whole tree. fn returning false stops the scan.
func (b *BTree) ScanPrefix(prefix datum.Row, ctr *Counters, fn func(Entry) bool) {
	n := b.root
	for !n.leaf {
		ctr.readIndexPage(n)
		if len(prefix) == 0 {
			n = n.children[0]
		} else {
			n = n.children[n.routePrefixLow(prefix)]
		}
	}
	for n != nil {
		ctr.readIndexPage(n)
		for _, e := range n.entries {
			c := keyCmp(e.Key, prefix)
			if c < 0 {
				continue
			}
			if c > 0 {
				return
			}
			if !fn(e) {
				return
			}
		}
		n = n.next
	}
}

// ScanRange calls fn for entries with lo ≤ key-prefix ≤ hi on the first key
// column(s); nil bounds are open. It underlies index-supported range
// predicates.
func (b *BTree) ScanRange(lo, hi datum.Row, ctr *Counters, fn func(Entry) bool) {
	n := b.root
	for !n.leaf {
		ctr.readIndexPage(n)
		if lo == nil {
			n = n.children[0]
		} else {
			n = n.children[n.routePrefixLow(lo)]
		}
	}
	for n != nil {
		ctr.readIndexPage(n)
		for _, e := range n.entries {
			if lo != nil && keyCmp(e.Key, lo) < 0 {
				continue
			}
			if hi != nil && keyCmp(e.Key, hi) > 0 {
				return
			}
			if !fn(e) {
				return
			}
		}
		n = n.next
	}
}

// ScanAll calls fn for every entry in key order.
func (b *BTree) ScanAll(ctr *Counters, fn func(Entry) bool) {
	b.ScanPrefix(nil, ctr, fn)
}
