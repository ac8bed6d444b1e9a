// Package xform is the comparator the paper argues against: a
// transformational, EXODUS/Freytag-style rule optimizer [GRAE 87a, FREY 87]
// built over the same LOLEPOP algebra, cost model, and executor as the STAR
// optimizer.
//
// It maintains a queue of plans; for every plan it attempts every rule at
// every node, generating rewritten plans, deduplicating them through a memo
// of canonical forms, and pricing each complete plan independently. The
// rules split, as in EXODUS, into transformation rules (join commutativity
// and associativity over the logical join tree) and implementation rules
// (choosing a join method or an access path). The very behaviour the paper
// criticizes — "examine a large set of rules and apply complicated
// conditions on each of a large set of plans", plus re-deriving shared
// subplans — is faithfully present, which is what experiment E5 measures.
//
// The baseline covers local (single-site) queries; the distributed
// strategies of Section 4.2 are exactly the kind of repertoire growth that
// makes transformational rule sets unwieldy.
package xform

import (
	"fmt"
	"strings"
	"time"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/expr"
	"stars/internal/plan"
	"stars/internal/query"
)

// LKind tags logical nodes.
type LKind uint8

// Logical node kinds.
const (
	// LScan ranges over one quantifier.
	LScan LKind = iota
	// LJoin joins two logical subtrees.
	LJoin
)

// LNode is a node of the annotated logical join tree the transformational
// rules rewrite. Implementation annotations (Method on joins, Access on
// scans) start empty; implementation rules fill them in; a plan is complete
// when every node is annotated.
type LNode struct {
	Kind LKind
	// Quant is the quantifier name (LScan).
	Quant string
	// Access is the chosen access path: "" unassigned, "seq" for the
	// storage-manager scan, or an index name (LScan).
	Access string
	// Method is the chosen join method: "" unassigned, else NL/MG/HA
	// (LJoin).
	Method string
	// L and R are the join inputs (LJoin).
	L, R *LNode
}

// clone copies the tree.
func (n *LNode) clone() *LNode {
	if n == nil {
		return nil
	}
	c := *n
	c.L = n.L.clone()
	c.R = n.R.clone()
	return &c
}

// key canonically renders the annotated tree (memo key).
func (n *LNode) key(b *strings.Builder) {
	if n.Kind == LScan {
		b.WriteString(n.Quant)
		if n.Access != "" {
			b.WriteByte('@')
			b.WriteString(n.Access)
		}
		return
	}
	b.WriteByte('(')
	n.L.key(b)
	b.WriteByte('*')
	if n.Method != "" {
		b.WriteString(n.Method)
		b.WriteByte('*')
	}
	n.R.key(b)
	b.WriteByte(')')
}

// Key returns the canonical memo key.
func (n *LNode) Key() string {
	var b strings.Builder
	n.key(&b)
	return b.String()
}

// tables collects the quantifier names under n.
func (n *LNode) tables(out *[]string) {
	if n.Kind == LScan {
		*out = append(*out, n.Quant)
		return
	}
	n.L.tables(out)
	n.R.tables(out)
}

// TableSet returns the quantifier set under n, within the query's universe.
func (n *LNode) TableSet(u *expr.Universe) expr.TableSet {
	var names []string
	n.tables(&names)
	return u.Tables(names...)
}

// complete reports whether every node carries its implementation
// annotation.
func (n *LNode) complete() bool {
	if n.Kind == LScan {
		return n.Access != ""
	}
	return n.Method != "" && n.L.complete() && n.R.complete()
}

// nodes visits every node with a path-aware replacer: fn receives the node
// and a function rebuilding the whole tree with that node replaced.
func (n *LNode) nodes(visit func(cur *LNode, replace func(*LNode) *LNode)) {
	var rec func(cur *LNode, rebuild func(*LNode) *LNode)
	rec = func(cur *LNode, rebuild func(*LNode) *LNode) {
		visit(cur, rebuild)
		if cur.Kind == LJoin {
			rec(cur.L, func(nl *LNode) *LNode {
				c := *cur
				c.L = nl
				return rebuild(&c)
			})
			rec(cur.R, func(nr *LNode) *LNode {
				c := *cur
				c.R = nr
				return rebuild(&c)
			})
		}
	}
	rec(n, func(x *LNode) *LNode { return x })
}

// Rule is one transformation or implementation rule.
type Rule struct {
	// Name identifies the rule in statistics and traces.
	Name string
	// Implementation distinguishes EXODUS's two rule classes.
	Implementation bool
	// Apply attempts the rule at node cur of a plan; it returns zero or
	// more full rewritten trees built through replace.
	Apply func(o *Optimizer, cur *LNode, replace func(*LNode) *LNode) []*LNode
}

// Stats counts the transformational search's work, mirror-imaging
// star.Stats for experiment E5.
type Stats struct {
	// Attempts counts (plan, node, rule) match attempts.
	Attempts int64
	// Matches counts successful rule applications.
	Matches int64
	// PlansGenerated counts rewritten trees produced (pre-dedup).
	PlansGenerated int64
	// PlansExplored counts distinct trees dequeued.
	PlansExplored int64
	// CompletePlans counts fully annotated plans priced.
	CompletePlans int64
	// Elapsed is wall-clock search time.
	Elapsed time.Duration
}

// Result is the search outcome.
type Result struct {
	// Best is the cheapest complete physical plan.
	Best *plan.Node
	// Stats counts the work performed.
	Stats Stats
	// Truncated reports that the search hit MaxPlans and Best is only the
	// cheapest plan found before the cap — the combinatorial explosion
	// the paper's Section 1 attributes to transformational systems.
	Truncated bool
}

// Optimizer is the transformational optimizer.
type Optimizer struct {
	Cat   *catalog.Catalog
	Graph *query.Graph
	Env   *cost.Env
	Rules []*Rule
	// MaxPlans bounds the explored search space; 0 means DefaultMaxPlans.
	MaxPlans int
}

// DefaultMaxPlans bounds the memo; transformational search on large queries
// explodes, which is rather the point of the comparison.
const DefaultMaxPlans = 500000

// New builds a transformational optimizer with the default rule set over
// the given catalog and query, sharing the STAR optimizer's cost model.
func New(cat *catalog.Catalog, g *query.Graph, w cost.Weights) *Optimizer {
	env := cost.NewEnv(cat, w)
	env.Bind(g)
	return &Optimizer{Cat: cat, Graph: g, Env: env, Rules: DefaultRules()}
}

// DefaultRules returns the EXODUS-style rule set: commute, associate (both
// directions), join-method selection, and access-path selection.
func DefaultRules() []*Rule {
	return []*Rule{
		{
			Name: "commute",
			Apply: func(o *Optimizer, cur *LNode, replace func(*LNode) *LNode) []*LNode {
				if cur.Kind != LJoin {
					return nil
				}
				// Methods are input-asymmetric: commuting resets the
				// method annotation (a re-derivation cost transformational
				// systems pay).
				c := &LNode{Kind: LJoin, L: cur.R.clone(), R: cur.L.clone()}
				return []*LNode{replace(c)}
			},
		},
		{
			Name: "assoc-left",
			Apply: func(o *Optimizer, cur *LNode, replace func(*LNode) *LNode) []*LNode {
				// (A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)
				if cur.Kind != LJoin || cur.L.Kind != LJoin {
					return nil
				}
				a, b, c := cur.L.L, cur.L.R, cur.R
				n := &LNode{Kind: LJoin, L: a.clone(),
					R: &LNode{Kind: LJoin, L: b.clone(), R: c.clone()}}
				return []*LNode{replace(n)}
			},
		},
		{
			Name: "assoc-right",
			Apply: func(o *Optimizer, cur *LNode, replace func(*LNode) *LNode) []*LNode {
				// A ⋈ (B ⋈ C) → (A ⋈ B) ⋈ C
				if cur.Kind != LJoin || cur.R.Kind != LJoin {
					return nil
				}
				a, b, c := cur.L, cur.R.L, cur.R.R
				n := &LNode{Kind: LJoin,
					L: &LNode{Kind: LJoin, L: a.clone(), R: b.clone()},
					R: c.clone()}
				return []*LNode{replace(n)}
			},
		},
		{
			Name:           "impl-join-method",
			Implementation: true,
			Apply: func(o *Optimizer, cur *LNode, replace func(*LNode) *LNode) []*LNode {
				if cur.Kind != LJoin || cur.Method != "" {
					return nil
				}
				t1 := cur.L.TableSet(o.Graph.Universe())
				t2 := cur.R.TableSet(o.Graph.Universe())
				p := o.Graph.NewlyEligible(t1, t2)
				var out []*LNode
				set := func(m string) {
					c := cur.clone()
					c.Method = m
					out = append(out, replace(c))
				}
				set(plan.MethodNL)
				if !expr.SortablePreds(p, t1, t2).Empty() {
					set(plan.MethodMG)
				}
				if !expr.HashablePreds(p, t1, t2).Empty() {
					set(plan.MethodHA)
				}
				return out
			},
		},
		{
			Name:           "impl-access-path",
			Implementation: true,
			Apply: func(o *Optimizer, cur *LNode, replace func(*LNode) *LNode) []*LNode {
				if cur.Kind != LScan || cur.Access != "" {
					return nil
				}
				q := o.Graph.Quant(cur.Quant)
				if q == nil {
					return nil
				}
				t := o.Cat.Table(q.Table)
				var out []*LNode
				set := func(a string) {
					c := cur.clone()
					c.Access = a
					out = append(out, replace(c))
				}
				set("seq")
				for _, p := range t.Paths {
					set(p.Name)
				}
				return out
			},
		},
	}
}

// Initial returns the canonical starting plan: a left-deep unannotated join
// tree in FROM order (transformational systems require an initial plan;
// constructive STARs do not — Section 6).
func (o *Optimizer) Initial() *LNode {
	var root *LNode
	for _, q := range o.Graph.Quants {
		scan := &LNode{Kind: LScan, Quant: q.Name}
		if root == nil {
			root = scan
		} else {
			root = &LNode{Kind: LJoin, L: root, R: scan}
		}
	}
	return root
}

// Optimize runs the exhaustive transformational search and returns the
// cheapest complete plan.
func (o *Optimizer) Optimize() (*Result, error) {
	start := time.Now()
	if err := o.Graph.Validate(o.Cat); err != nil {
		return nil, err
	}
	if !o.Cat.LocalQuery(tableNames(o.Graph)) {
		return nil, fmt.Errorf("xform: the transformational baseline covers local queries only")
	}
	maxPlans := o.MaxPlans
	if maxPlans == 0 {
		maxPlans = DefaultMaxPlans
	}

	res := &Result{}
	seen := map[string]bool{}
	var queue []*LNode
	push := func(n *LNode) {
		k := n.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		queue = append(queue, n)
	}
	push(o.Initial())

	var best *plan.Node
	for len(queue) > 0 {
		if len(seen) > maxPlans {
			res.Truncated = true
			break
		}
		// LIFO exploration reaches fully annotated plans early, so a
		// truncated search still returns its best-so-far.
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		res.Stats.PlansExplored++

		if cur.complete() {
			res.Stats.CompletePlans++
			phys, err := o.Lower(cur)
			if err != nil {
				return nil, err
			}
			if phys != nil && (best == nil || phys.Props.Cost.Total < best.Props.Cost.Total) {
				best = phys
			}
		}

		cur.nodes(func(node *LNode, replace func(*LNode) *LNode) {
			for _, r := range o.Rules {
				res.Stats.Attempts++
				outs := r.Apply(o, node, replace)
				if len(outs) == 0 {
					continue
				}
				res.Stats.Matches++
				for _, out := range outs {
					res.Stats.PlansGenerated++
					push(out)
				}
			}
		})
	}
	if best == nil {
		return nil, fmt.Errorf("xform: no complete plan produced")
	}
	res.Best = best
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

func tableNames(g *query.Graph) []string {
	out := make([]string, len(g.Quants))
	for i, q := range g.Quants {
		out[i] = q.Table
	}
	return out
}
