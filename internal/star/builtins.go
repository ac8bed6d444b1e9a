package star

import (
	"fmt"
	"math/bits"

	"stars/internal/catalog"
	"stars/internal/expr"
	"stars/internal/plan"
)

// builtins is the callee table every engine starts from, filled at package
// init and never written after: Glue, the LOLEPOP builders, and the helper
// functions the built-in rule file references — the Section 4 classifiers and
// the catalog-probing guards — each declared once, beside its signature. A
// signature mirrors its function's run-time argument checks (the arity test
// pins that they agree). A builder implements the map-over-SAP semantics
// of Section 2.2: a reference whose stream arguments are multi-valued
// produces one node per combination. Produces declares a builder's property
// effect: an index-flavor ACCESS delivers key order and is itself an access
// path; the four veneer operators establish exactly the property Glue
// injects them for.
var builtins = newTable([]Callee{
	{GlueSignature, (*Engine).evalGlue},

	// LOLEPOP builders.
	{Signature{Name: "ACCESS", Args: []ArgKind{KindStr, KindStream | KindSAP | KindStr, KindCols | KindAllCols, KindPreds}, Result: KindSAP, Produces: []string{"order", "paths"}}, biAccess},
	{Signature{Name: "GET", Args: []ArgKind{KindSAP, KindStream, KindCols | KindAllCols, KindPreds}, Result: KindSAP}, biGet},
	{Signature{Name: "SORT", Args: []ArgKind{KindSAP, KindCols}, Result: KindSAP, Produces: []string{"order"}}, biSort},
	{Signature{Name: "SHIP", Args: []ArgKind{KindSAP, KindStr}, Result: KindSAP, Produces: []string{"site"}}, biShip},
	{Signature{Name: "STORE", Args: []ArgKind{KindSAP}, Result: KindSAP, Produces: []string{"temp"}}, biStore},
	{Signature{Name: "FILTER", Args: []ArgKind{KindSAP, KindPreds}, Result: KindSAP}, biFilter},
	{Signature{Name: "BUILDINDEX", Args: []ArgKind{KindSAP, KindCols}, Result: KindSAP, Produces: []string{"paths"}}, biBuildIndex},
	{Signature{Name: "JOIN", Args: []ArgKind{KindStr, KindSAP, KindSAP, KindPreds, KindPreds}, Result: KindSAP}, biJoin},
	{Signature{Name: "IXAND", Args: []ArgKind{KindSAP, KindSAP}, Result: KindSAP}, biIndexAnd},

	// Predicate classifiers and set algebra.
	classifier("joinPreds", expr.JoinPreds),
	classifier("sortablePreds", expr.SortablePreds),
	classifier("hashablePreds", expr.HashablePreds),
	classifier("indexablePreds", expr.IndexablePreds),
	{Signature{Name: "innerPreds", Args: []ArgKind{KindPreds, KindStream}, Result: KindPreds}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 2 || args[0].Kind != VPreds || args[1].Kind != VStream {
			return Null, fmt.Errorf("innerPreds wants (preds, stream)")
		}
		return PredsValue(expr.InnerPreds(args[0].Preds, args[1].Stream.Tables)), nil
	}},
	setop("union", expr.PredSet.Union),
	setop("minus", expr.PredSet.Minus),
	setop("intersect", expr.PredSet.Intersect),
	{Signature{Name: "matchedPreds", Args: []ArgKind{KindPreds, KindStream, KindStr}, Result: KindPreds}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 3 || args[0].Kind != VPreds || args[1].Kind != VStream || args[2].Kind != VStr {
			return Null, fmt.Errorf("matchedPreds wants (preds, stream, index)")
		}
		q, err := onlyQuantifier(args[1].Stream, "matchedPreds")
		if err != nil {
			return Null, err
		}
		path := en.Cost.Path(q, args[2].Str)
		if path == nil {
			return Null, fmt.Errorf("unknown index %q", args[2].Str)
		}
		return PredsValue(expr.MatchIndexPrefix(args[0].Preds, path.Cols)), nil
	}},

	// Column derivations.
	{Signature{Name: "sortCols", Args: []ArgKind{KindPreds, KindStream}, Result: KindCols}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 2 || args[0].Kind != VPreds || args[1].Kind != VStream {
			return Null, fmt.Errorf("sortCols wants (preds, stream)")
		}
		return ColsValue(en.Cost.Vocab().SortColsFor(args[0].Preds, args[1].Stream.Tables, en.Cost.Arena)), nil
	}},
	{Signature{Name: "indexCols", Args: []ArgKind{KindPreds, KindPreds, KindStream}, Result: KindCols}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 3 || args[0].Kind != VPreds || args[1].Kind != VPreds || args[2].Kind != VStream {
			return Null, fmt.Errorf("indexCols wants (xp, ip, stream)")
		}
		return ColsValue(en.Cost.Vocab().IndexColsFor(args[0].Preds, args[1].Preds, args[2].Stream.Tables, en.Cost.Arena)), nil
	}},
	{Signature{Name: "tidcol", Args: []ArgKind{KindStream}, Result: KindCols}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 1 || args[0].Kind != VStream {
			return Null, fmt.Errorf("tidcol wants a stream")
		}
		q, err := onlyQuantifier(args[0].Stream, "tidcol")
		if err != nil {
			return Null, err
		}
		return ColsValue(en.Cost.TID(q)), nil
	}},
	{Signature{Name: "indexProbeCols", Args: []ArgKind{KindStream, KindStr}, Result: KindCols}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 2 || args[0].Kind != VStream || args[1].Kind != VStr {
			return Null, fmt.Errorf("indexProbeCols wants (stream, index)")
		}
		q, err := onlyQuantifier(args[0].Stream, "indexProbeCols")
		if err != nil {
			return Null, err
		}
		path := en.Cost.Path(q, args[1].Str)
		if path == nil {
			return Null, fmt.Errorf("unknown index %q", args[1].Str)
		}
		return ColsValue(en.Cost.TID(q).Concat(path.Cols, en.Cost.Arena)), nil
	}},

	// Conditions of applicability.
	{Signature{Name: "nonempty", Args: []ArgKind{KindAny}, Result: KindBool}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 1 {
			return Null, fmt.Errorf("nonempty wants one argument")
		}
		return BoolValue(args[0].Truthy()), nil
	}},
	{Signature{Name: "empty", Args: []ArgKind{KindAny}, Result: KindBool}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 1 {
			return Null, fmt.Errorf("empty wants one argument")
		}
		return BoolValue(!args[0].Truthy()), nil
	}},
	{Signature{Name: "localQuery", Args: []ArgKind{}, Result: KindBool}, func(en *Engine, args []Value) (Value, error) {
		return BoolValue(en.Cost.Cat.LocalQuery(en.queryBaseTables())), nil
	}},
	{Signature{Name: "isComposite", Args: []ArgKind{KindStream}, Result: KindBool}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 1 || args[0].Kind != VStream {
			return Null, fmt.Errorf("isComposite wants a stream")
		}
		return BoolValue(args[0].Stream.Tables.Len() > 1), nil
	}},
	{Signature{Name: "siteDiffers", Args: []ArgKind{KindStream}, Result: KindBool}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 1 || args[0].Kind != VStream {
			return Null, fmt.Errorf("siteDiffers wants a stream")
		}
		sv := args[0].Stream
		if sv.Req.Site == nil {
			return BoolValue(false), nil
		}
		var sites []string
		if en.PlanSites != nil {
			sites = en.PlanSites(sv.Tables)
		}
		for _, s := range sites {
			if s == *sv.Req.Site {
				return BoolValue(false), nil
			}
		}
		return BoolValue(true), nil
	}},
	{Signature{Name: "stmgr", Args: []ArgKind{KindStream | KindSAP, KindStr}, Result: KindBool}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 2 || args[1].Kind != VStr {
			return Null, fmt.Errorf("stmgr wants (stream-or-plans, kind)")
		}
		switch args[0].Kind {
		case VSAP:
			// Temps are stored as heaps.
			return BoolValue(args[1].Str == string(catalog.Heap)), nil
		case VStream:
			q, err := onlyQuantifier(args[0].Stream, "stmgr")
			if err != nil {
				return Null, err
			}
			t := en.Cost.BaseTable(q)
			if t == nil {
				return BoolValue(args[1].Str == string(catalog.Heap)), nil
			}
			return BoolValue(string(t.StorageKindOrDefault()) == args[1].Str), nil
		default:
			return Null, fmt.Errorf("stmgr wants a stream or plans, got %s", args[0].Kind)
		}
	}},
	{Signature{Name: "pathPrefix", Args: []ArgKind{KindStream, KindStr, KindCols}, Result: KindBool}, func(en *Engine, args []Value) (Value, error) {
		// pathPrefix(T, i, o): the paper's "order ⊑ a" — the required
		// order's columns are a prefix of access path i's key columns.
		if len(args) != 3 || args[0].Kind != VStream || args[1].Kind != VStr || args[2].Kind != VCols {
			return Null, fmt.Errorf("pathPrefix wants (stream, index, cols)")
		}
		q, err := onlyQuantifier(args[0].Stream, "pathPrefix")
		if err != nil {
			return Null, err
		}
		path := en.Cost.Path(q, args[1].Str)
		return BoolValue(path != nil && plan.OrderSatisfies(path.Cols, args[2].Cols)), nil
	}},
	{Signature{Name: "projectionPays", Args: []ArgKind{KindStream, KindPreds}, Result: KindBool}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 2 || args[0].Kind != VStream || args[1].Kind != VPreds {
			return Null, fmt.Errorf("projectionPays wants (stream, preds)")
		}
		return BoolValue(en.projectionPays(args[0].Stream, args[1].Preds)), nil
	}},

	// Catalog probes producing forall domains.
	{Signature{Name: "indexes", Args: []ArgKind{KindStream}, Result: KindList, Elem: KindStr}, func(en *Engine, args []Value) (Value, error) {
		if len(args) != 1 || args[0].Kind != VStream {
			return Null, fmt.Errorf("indexes wants a stream")
		}
		q, err := onlyQuantifier(args[0].Stream, "indexes")
		if err != nil {
			return Null, err
		}
		if i := bits.TrailingZeros64(args[0].Stream.Tables.Mask()); i < len(en.QueryTables) && en.QueryTables[i] == q {
			return ListValue(en.catalogLists()[i]), nil
		}
		return ListValue(pathNames(nil, en.Cost.BaseTable(q))), nil
	}},
	{Signature{Name: "allSites", Args: []ArgKind{}, Result: KindList, Elem: KindStr}, func(en *Engine, args []Value) (Value, error) {
		lists := en.catalogLists()
		return ListValue(lists[len(lists)-1]), nil
	}},
})

// biIndexAnd builds IXAND nodes: the TID intersection of two index-probe
// streams of the same quantifier (index ANDing).
func biIndexAnd(en *Engine, args []Value) (Value, error) {
	if len(args) != 2 || args[0].Kind != VSAP || args[1].Kind != VSAP {
		return Null, fmt.Errorf("IXAND wants (plans, plans)")
	}
	mark := len(en.saps)
	for _, a := range args[0].SAP {
		for _, b := range args[1].SAP {
			if a.ID() == b.ID() {
				// Intersecting a probe with itself is the probe.
				en.Stats.PlansRejected++
				continue
			}
			en.build(en.Cost.Arena.NewNode(plan.Node{Op: plan.OpIndexAnd}, a, b))
		}
	}
	return SAPValue(en.since(mark)), nil
}

// build prices a freshly built node and pushes it on the SAP scratch; a
// pricing rejection (e.g. join inputs at different sites) drops the node.
// Pricing never re-enters the engine, so a builder's result is en.since(mark).
func (en *Engine) build(n *plan.Node) {
	if err := en.Cost.Price(n); err != nil {
		en.Stats.PlansRejected++
		return
	}
	en.Stats.PlansBuilt++
	en.saps = append(en.saps, n)
}

// onlyQuantifier returns the single quantifier of a stream, erroring on
// composites.
func onlyQuantifier(sv StreamVal, op string) (string, error) {
	q, ok := sv.Tables.Only()
	if !ok {
		return "", fmt.Errorf("%s wants a single-table stream, got {%s}", op, sv.Tables.Key()) //obsguard:ignore error path
	}
	return q, nil
}

// resolveCols materializes a column-list argument for quantifier q: `*`
// resolves to every column the query needs from q.
func (en *Engine) resolveCols(v Value, q string) (expr.ColList, error) {
	switch v.Kind {
	case VCols:
		return v.Cols, nil
	case VAllCols:
		return en.Cost.Needed(q), nil
	default:
		return expr.ColList{}, fmt.Errorf("want columns or '*', got %s", v.Kind)
	}
}

func wantPreds(v Value, op string) (expr.PredSet, error) {
	if v.Kind != VPreds {
		return expr.PredSet{}, fmt.Errorf("%s wants predicates, got %s", op, v.Kind)
	}
	return v.Preds, nil
}

// biAccess builds ACCESS nodes. Forms:
//
//	ACCESS('heap'|'btree', T, C, P)  — sequential scan of a base table
//	ACCESS('heap'|'btree', sap, C, P) — scan of a materialized temp
//	ACCESS('index', i, C, P)          — scan/probe of access method i
func biAccess(en *Engine, args []Value) (Value, error) {
	if len(args) != 4 {
		return Null, fmt.Errorf("ACCESS wants (flavor, target, cols, preds)")
	}
	if args[0].Kind != VStr {
		return Null, fmt.Errorf("ACCESS flavor must be a string")
	}
	flavor := args[0].Str
	preds, err := wantPreds(args[3], "ACCESS")
	if err != nil {
		return Null, err
	}
	mark := len(en.saps)
	switch flavor {
	case "heap", "btree":
		switch args[1].Kind {
		case VStream:
			q, err := onlyQuantifier(args[1].Stream, "ACCESS")
			if err != nil {
				return Null, err
			}
			t := en.Cost.BaseTable(q)
			if t == nil {
				return Null, fmt.Errorf("ACCESS of unknown table for quantifier %q", q)
			}
			cols, err := en.resolveCols(args[2], q)
			if err != nil {
				return Null, err
			}
			fl := plan.FlavorHeap
			if flavor == "btree" {
				fl = plan.FlavorBTreeStore
			}
			en.build(en.Cost.Arena.NewNode(plan.Node{
				Op: plan.OpAccess, Flavor: fl,
				Table: t.Name, Quantifier: q,
				Cols: cols, Preds: preds,
			}))
		case VSAP:
			for _, p := range args[1].SAP {
				if p.Props == nil || !p.Props.Temp {
					return Null, fmt.Errorf("ACCESS over plans requires materialized (temp) inputs")
				}
				// Listing no columns (for '*') carries the temp's COLS.
				en.build(en.Cost.Arena.NewNode(plan.Node{
					Op: plan.OpAccess, Flavor: plan.FlavorHeap,
					Cols: args[2].Cols, Preds: preds,
				}, p))
			}
		default:
			return Null, fmt.Errorf("ACCESS target must be a stream or plans, got %s", args[1].Kind)
		}
	case "index":
		if args[1].Kind != VStr {
			return Null, fmt.Errorf("index ACCESS wants a path name")
		}
		path, pt := en.Cost.Cat.Path(args[1].Str)
		if path == nil {
			return Null, fmt.Errorf("index ACCESS of unknown path %q", args[1].Str)
		}
		if args[2].Kind != VCols || args[2].Cols.Len() == 0 {
			return Null, fmt.Errorf("index ACCESS wants explicit qualified columns")
		}
		cols := args[2].Cols
		en.build(en.Cost.Arena.NewNode(plan.Node{
			Op: plan.OpAccess, Flavor: plan.FlavorIndex,
			Table: pt.Name, Quantifier: cols.ID(0).Table, Path: path.Name,
			Cols: cols, Preds: preds,
		}))
	default:
		return Null, fmt.Errorf("unknown ACCESS flavor %q", flavor)
	}
	return SAPValue(en.since(mark)), nil
}

// biGet builds GET nodes: for each input plan, fetch by TID the needed
// columns of T not already in the stream, applying P. When nothing remains
// to fetch or filter, the input passes through unchanged (index-only access).
func biGet(en *Engine, args []Value) (Value, error) {
	if len(args) != 4 {
		return Null, fmt.Errorf("GET wants (input, table, cols, preds)")
	}
	if args[0].Kind != VSAP {
		return Null, fmt.Errorf("GET input must be plans, got %s", args[0].Kind)
	}
	if args[1].Kind != VStream {
		return Null, fmt.Errorf("GET table must be a stream, got %s", args[1].Kind)
	}
	q, err := onlyQuantifier(args[1].Stream, "GET")
	if err != nil {
		return Null, err
	}
	t := en.Cost.BaseTable(q)
	if t == nil {
		return Null, fmt.Errorf("GET from unknown table for quantifier %q", q)
	}
	want, err := en.resolveCols(args[2], q)
	if err != nil {
		return Null, err
	}
	preds, err := wantPreds(args[3], "GET")
	if err != nil {
		return Null, err
	}
	mark := len(en.saps)
	for _, p := range args[0].SAP {
		fetch := want.Set().Minus(p.Props.Cols())
		if fetch.Empty() && preds.Empty() {
			en.saps = append(en.saps, p)
			continue
		}
		en.build(en.Cost.Arena.NewNode(plan.Node{
			Op: plan.OpGet, Table: t.Name, Quantifier: q,
			Cols: fetch.List(en.Cost.Arena), Preds: preds,
		}, p))
	}
	return SAPValue(en.since(mark)), nil
}

// unarySAP maps a node constructor over a SAP argument.
func unarySAP(en *Engine, v Value, op string, mk func(*plan.Node) *plan.Node) (Value, error) {
	if v.Kind != VSAP {
		return Null, fmt.Errorf("%s input must be plans, got %s", op, v.Kind)
	}
	mark := len(en.saps)
	for _, p := range v.SAP {
		if n := mk(p); n == p {
			en.saps = append(en.saps, p)
		} else {
			en.build(n)
		}
	}
	return SAPValue(en.since(mark)), nil
}

// biSort builds SORT nodes, passing through plans already in the required
// order.
func biSort(en *Engine, args []Value) (Value, error) {
	if len(args) != 2 || args[1].Kind != VCols {
		return Null, fmt.Errorf("SORT wants (input, cols)")
	}
	key := args[1].Cols
	return unarySAP(en, args[0], "SORT", func(p *plan.Node) *plan.Node {
		if plan.OrderSatisfies(p.Props.Order, key) {
			return p
		}
		return en.Cost.Arena.NewNode(plan.Node{Op: plan.OpSort, SortCols: key}, p)
	})
}

// biShip builds SHIP nodes, passing through plans already at the site.
func biShip(en *Engine, args []Value) (Value, error) {
	if len(args) != 2 || args[1].Kind != VStr {
		return Null, fmt.Errorf("SHIP wants (input, site)")
	}
	site := args[1].Str
	return unarySAP(en, args[0], "SHIP", func(p *plan.Node) *plan.Node {
		if p.Props.Site == site {
			return p
		}
		return en.Cost.Arena.NewNode(plan.Node{Op: plan.OpShip, Site: site}, p)
	})
}

// biStore builds STORE nodes, passing through plans already materialized.
func biStore(en *Engine, args []Value) (Value, error) {
	if len(args) != 1 {
		return Null, fmt.Errorf("STORE wants (input)")
	}
	return unarySAP(en, args[0], "STORE", func(p *plan.Node) *plan.Node {
		if p.Props.Temp {
			return p
		}
		return en.Cost.Arena.NewNode(plan.Node{Op: plan.OpStore}, p)
	})
}

// biFilter builds FILTER nodes.
func biFilter(en *Engine, args []Value) (Value, error) {
	if len(args) != 2 {
		return Null, fmt.Errorf("FILTER wants (input, preds)")
	}
	preds, err := wantPreds(args[1], "FILTER")
	if err != nil {
		return Null, err
	}
	if preds.Empty() {
		return args[0], nil
	}
	return unarySAP(en, args[0], "FILTER", func(p *plan.Node) *plan.Node {
		return en.Cost.Arena.NewNode(plan.Node{Op: plan.OpFilter, Preds: preds}, p)
	})
}

// biBuildIndex builds BUILDINDEX nodes over materialized temps.
func biBuildIndex(en *Engine, args []Value) (Value, error) {
	if len(args) != 2 || args[1].Kind != VCols {
		return Null, fmt.Errorf("BUILDINDEX wants (input, keycols)")
	}
	key := args[1].Cols
	return unarySAP(en, args[0], "BUILDINDEX", func(p *plan.Node) *plan.Node {
		if p.Props.PathOn(key) != nil {
			return p
		}
		return en.Cost.Arena.NewNode(plan.Node{Op: plan.OpBuildIndex, SortCols: key}, p)
	})
}

// biJoin builds JOIN nodes over the cross product of the outer and inner
// SAPs. Combinations whose property function rejects them (e.g. site
// mismatch) are dropped and counted.
func biJoin(en *Engine, args []Value) (Value, error) {
	if len(args) != 5 {
		return Null, fmt.Errorf("JOIN wants (method, outer, inner, preds, residual)")
	}
	if args[0].Kind != VStr {
		return Null, fmt.Errorf("JOIN method must be a string")
	}
	if args[1].Kind != VSAP || args[2].Kind != VSAP {
		return Null, fmt.Errorf("JOIN inputs must be plans")
	}
	applied, err := wantPreds(args[3], "JOIN")
	if err != nil {
		return Null, err
	}
	residual, err := wantPreds(args[4], "JOIN")
	if err != nil {
		return Null, err
	}
	mark := len(en.saps)
	for _, o := range args[1].SAP {
		for _, i := range args[2].SAP {
			if o.Props.Site != i.Props.Site {
				en.Stats.PlansRejected++
				continue
			}
			en.build(en.Cost.Arena.NewNode(plan.Node{
				Op: plan.OpJoin, Flavor: args[0].Str,
				Preds: applied, Residual: residual,
			}, o, i))
		}
	}
	return SAPValue(en.since(mark)), nil
}

// classifier is a Section 4 predicate classifier as a helper of
// (preds, stream, stream).
func classifier(name string, f func(p expr.PredSet, t1, t2 expr.TableSet) expr.PredSet) Callee {
	return Callee{Signature{Name: name, Args: []ArgKind{KindPreds, KindStream, KindStream}, Result: KindPreds},
		func(en *Engine, args []Value) (Value, error) {
			if len(args) != 3 || args[0].Kind != VPreds || args[1].Kind != VStream || args[2].Kind != VStream {
				return Null, fmt.Errorf("%s wants (preds, stream, stream)", name)
			}
			return PredsValue(f(args[0].Preds, args[1].Stream.Tables, args[2].Stream.Tables)), nil
		}}
}

// setop is a predicate-set operation as a helper of (preds, preds).
func setop(name string, f func(a, b expr.PredSet) expr.PredSet) Callee {
	return Callee{Signature{Name: name, Args: []ArgKind{KindPreds, KindPreds}, Result: KindPreds},
		func(en *Engine, args []Value) (Value, error) {
			if len(args) != 2 || args[0].Kind != VPreds || args[1].Kind != VPreds {
				return Null, fmt.Errorf("%s wants (preds, preds)", name)
			}
			return PredsValue(f(args[0].Preds, args[1].Preds)), nil
		}}
}

// queryBaseTables maps QueryTables to base-table names for catalog queries,
// on first use: both are fixed for the engine's query, and forks inherit the
// answer.
func (en *Engine) queryBaseTables() []string {
	if en.queryBase == nil {
		en.queryBase = make([]string, 0, len(en.QueryTables))
		for _, q := range en.QueryTables {
			if t := en.Cost.BaseTable(q); t != nil {
				q = t.Name
			}
			en.queryBase = append(en.queryBase, q)
		}
	}
	return en.queryBase
}

// catalogLists returns the lists indexes hands out for each quantifier of
// QueryTables, then allSites' list, building them on the engine's Scratch on
// first use. Like queryBase they are fixed for the engine's query; a list is
// read-only once built (a forall only reslices it), and forks share them. One
// cut before names grew keeps reading the old array, whose slots never change.
func (en *Engine) catalogLists() [][]Value {
	if en.lists == nil {
		s := en.Scratch
		s.names, s.lists = s.names[:0], s.lists[:0]
		for _, q := range en.QueryTables {
			at := len(s.names)
			s.names = pathNames(s.names, en.Cost.BaseTable(q))
			s.lists = append(s.lists, s.names[at:len(s.names):len(s.names)])
		}
		at := len(s.names)
		for _, site := range en.Cost.Cat.AllSites(en.queryBaseTables()) {
			s.names = append(s.names, StrValue(site))
		}
		en.lists = append(s.lists, s.names[at:len(s.names):len(s.names)])
		s.lists = en.lists
	}
	return en.lists
}

// pathNames appends the names of t's access paths to dst.
func pathNames(dst []Value, t *catalog.Table) []Value {
	if t != nil {
		for _, p := range t.Paths {
			dst = append(dst, StrValue(p.Name))
		}
	}
	return dst
}

// projectionPays is the Section 4.5.2 heuristic: materializing the selected
// and projected inner of a nested-loop join pays when the inner predicates
// are selective and/or only a few columns are referenced, so that the temp
// is a very small fraction of the inner table's bytes.
func (en *Engine) projectionPays(sv StreamVal, ip expr.PredSet) bool {
	q, ok := sv.Tables.Only()
	if !ok {
		return false
	}
	t := en.Cost.BaseTable(q)
	if t == nil {
		return false
	}
	sel := en.Cost.SetSelectivity(ip)
	colWidth := en.Cost.Width(en.Cost.Needed(q))
	frac := 1.0
	if rw := t.RowWidth(); rw > 0 && colWidth > 0 {
		frac = float64(colWidth) / float64(rw)
	}
	return sel*frac < 0.05
}
