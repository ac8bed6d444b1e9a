package plan

import (
	"strings"
	"testing"
	"time"

	"stars/internal/datum"
	"stars/internal/expr"
)

// branchPlan is a hand-built plan that reaches every branch of the
// renderers the corpus plans do not: a SORT key, a STORE, a dynamic index
// built and probed over the temp, an ACCESS of the temp's whole COLS, a SHIP
// to the query site, a quoted string constant, a range-variable alias, a
// residual, an unknown join flavor, a node without properties, and Extra
// properties.
func branchPlan() *Node {
	ta, tb := col("T", "A"), col("T", "B")
	props := func(card float64, order ...expr.ColID) *Props {
		return &Props{
			Rel:   &Rel{Tables: tableSet("T"), Cols: colList(ta, tb).Set(), Preds: predSet(pred("T", "A", 1))},
			Order: colList(order...),
			Card:  card,
			Cost:  Cost{IO: 1.25, CPU: 2.5, Msg: 3, Bytes: 9, Total: card + 0.05},
		}
	}
	base := &Node{Op: OpAccess, Flavor: FlavorHeap, Table: "T", Quantifier: "T", Cols: colList(ta, tb),
		Preds: predSet(pred("T", "A", 1)), Origin: "TableAccess#1"}
	base.Props = props(7.25)
	base.Props.Site = "NY"
	base.Props.Paths = []PathInfo{{Name: "TB", Cols: colList(tb)}, {Name: "TA", Cols: colList(ta), Clustered: true}}
	base.Props.Extra = map[string]string{"zeta": "z", "bucketized": "true"}
	sorted := &Node{Op: OpSort, SortCols: colList(tb, ta), Inputs: []*Node{base}, Origin: "Glue"}
	sorted.Props = props(7.25, tb, ta)
	stored := &Node{Op: OpStore, Inputs: []*Node{sorted}}
	stored.Props = props(7.25, tb, ta)
	stored.Props.Temp = true
	built := &Node{Op: OpBuildIndex, SortCols: colList(ta), Inputs: []*Node{stored}}
	built.Props = props(7.25, tb, ta)
	built.Props.Temp = true
	built.Props.Paths = []PathInfo{{Cols: colList(ta), Dynamic: true, KeyWidth: 8}}
	probe := &Node{Op: OpAccess, Flavor: FlavorIndex, SortCols: colList(ta), Inputs: []*Node{built}}
	probe.Props = props(3)
	whole := &Node{Op: OpAccess, Flavor: FlavorHeap, Inputs: []*Node{stored}}
	whole.Props = props(7.25)
	quoted := &expr.Cmp{Op: expr.EQ, L: expr.C("T", "B"), R: &expr.Const{Val: datum.NewString(`a"b\c`)}}
	filter := &Node{Op: OpFilter, Preds: predSet(quoted), Inputs: []*Node{probe}}
	filter.Props = props(0.4)
	shipped := &Node{Op: OpShip, Inputs: []*Node{filter}}
	shipped.Props = props(0.4)
	ix := &Node{Op: OpAccess, Flavor: FlavorIndex, Table: "U", Quantifier: "UU", Path: "UIX",
		Cols: colList(col("U", "A"))}
	get := &Node{Op: OpGet, Table: "U", Quantifier: "UU", Cols: colList(col("U", "B")), Inputs: []*Node{ix}}
	join := &Node{Op: OpJoin, Flavor: "ZZ", Inputs: []*Node{shipped, get},
		Preds:    predSet(&expr.Cmp{Op: expr.EQ, L: expr.C("T", "A"), R: expr.C("U", "A")}),
		Residual: predSet(&expr.Cmp{Op: expr.LT, L: expr.C("T", "B"), R: expr.C("U", "B")}), Origin: "JMeth#9"}
	join.Props = props(12345.678)
	join.Props.Site = "LA"
	return &Node{Op: OpUnion, Inputs: []*Node{join, whole}}
}

// TestRenderingsCoverEveryBranch pins each renderer's exact text on
// branchPlan, so a rewrite of the renderers is checked byte for byte on the
// branches the corpus golden does not reach.
func TestRenderingsCoverEveryBranch(t *testing.T) {
	root := branchPlan()
	actuals := func(n *Node) (Actual, bool) {
		if n.Op != OpFilter && n.Op != OpGet {
			return Actual{}, false
		}
		return Actual{Rows: 3, Loops: 2, Cost: 17.5, Elapsed: 1500 * time.Nanosecond}, true
	}
	got := strings.Join([]string{
		Explain(root), ExplainVerbose(root), Functional(root), DOT(root),
		ExplainAnalyze(root, actuals), root.Inputs[0].Describe(),
	}, "----\n")
	if got != branchRenderings {
		t.Errorf("renderings moved\n got:\n%s\nwant:\n%s", got, branchRenderings)
	}
}

const branchRenderings = `UNION
  JOIN(ZZ) preds=[T.A = U.A] residual=[T.B < U.B] «JMeth#9»   {card=12346 site=LA cost=12345.7}
    SHIP to=(query site)   {card=0 cost=0.5}
      FILTER preds=[T.B = 'a"b\c']   {card=0 cost=0.5}
        ACCESS(index) path=_ixf86b7361459fa527 table=_t75d8e01bf480bb16 key=[T.A]   {card=3 cost=3.0}
          BUILDINDEX path=_ixf86b7361459fa527 key=[T.A]   {card=7 order=T.B,T.A temp cost=7.3}
            STORE table=_t75d8e01bf480bb16   {card=7 order=T.B,T.A temp cost=7.3}
              SORT key=[T.B,T.A] «Glue»   {card=7 order=T.B,T.A cost=7.3}
                ACCESS(heap) table=T cols=[T.A,T.B] preds=[T.A = 1] «TableAccess#1»   {card=7 site=NY cost=7.3}
    GET table=U as UU cols=[U.B]
      ACCESS(index) path=UIX table=U as UU cols=[U.A]
  ACCESS(heap) table=_t75d8e01bf480bb16   {card=7 cost=7.3}
    STORE table=_t75d8e01bf480bb16   {card=7 order=T.B,T.A temp cost=7.3}
      SORT key=[T.B,T.A] «Glue»   {card=7 order=T.B,T.A cost=7.3}
        ACCESS(heap) table=T cols=[T.A,T.B] preds=[T.A = 1] «TableAccess#1»   {card=7 site=NY cost=7.3}
----
UNION
  JOIN(ZZ) preds=[T.A = U.A] residual=[T.B < U.B] «JMeth#9»
    TABLES T
    COLS   T.A,T.B
    PREDS  {T.A = 1}
    ORDER  (unknown)
    SITE   LA
    TEMP   false
    PATHS  (none)
    CARD   12345.7
    COST   total=12345.7 (io=1.2 cpu=2.5 msg=3.0)
    SHIP to=(query site)
      TABLES T
      COLS   T.A,T.B
      PREDS  {T.A = 1}
      ORDER  (unknown)
      SITE   (query site)
      TEMP   false
      PATHS  (none)
      CARD   0.4
      COST   total=0.5 (io=1.2 cpu=2.5 msg=3.0)
      FILTER preds=[T.B = 'a"b\c']
        TABLES T
        COLS   T.A,T.B
        PREDS  {T.A = 1}
        ORDER  (unknown)
        SITE   (query site)
        TEMP   false
        PATHS  (none)
        CARD   0.4
        COST   total=0.5 (io=1.2 cpu=2.5 msg=3.0)
        ACCESS(index) path=_ixf86b7361459fa527 table=_t75d8e01bf480bb16 key=[T.A]
          TABLES T
          COLS   T.A,T.B
          PREDS  {T.A = 1}
          ORDER  (unknown)
          SITE   (query site)
          TEMP   false
          PATHS  (none)
          CARD   3.0
          COST   total=3.0 (io=1.2 cpu=2.5 msg=3.0)
          BUILDINDEX path=_ixf86b7361459fa527 key=[T.A]
            TABLES T
            COLS   T.A,T.B
            PREDS  {T.A = 1}
            ORDER  T.B,T.A
            SITE   (query site)
            TEMP   true
            PATHS  _ix*(T.A)
            CARD   7.2
            COST   total=7.3 (io=1.2 cpu=2.5 msg=3.0)
            STORE table=_t75d8e01bf480bb16
              TABLES T
              COLS   T.A,T.B
              PREDS  {T.A = 1}
              ORDER  T.B,T.A
              SITE   (query site)
              TEMP   true
              PATHS  (none)
              CARD   7.2
              COST   total=7.3 (io=1.2 cpu=2.5 msg=3.0)
              SORT key=[T.B,T.A] «Glue»
                TABLES T
                COLS   T.A,T.B
                PREDS  {T.A = 1}
                ORDER  T.B,T.A
                SITE   (query site)
                TEMP   false
                PATHS  (none)
                CARD   7.2
                COST   total=7.3 (io=1.2 cpu=2.5 msg=3.0)
                ACCESS(heap) table=T cols=[T.A,T.B] preds=[T.A = 1] «TableAccess#1»
                  TABLES T
                  COLS   T.A,T.B
                  PREDS  {T.A = 1}
                  ORDER  (unknown)
                  SITE   NY
                  TEMP   false
                  PATHS  TA(T.A), TB(T.B)
                  CARD   7.2
                  COST   total=7.3 (io=1.2 cpu=2.5 msg=3.0)
                  BUCKETIZED true
                  ZETA z
    GET table=U as UU cols=[U.B]
      ACCESS(index) path=UIX table=U as UU cols=[U.A]
  ACCESS(heap) table=_t75d8e01bf480bb16
    TABLES T
    COLS   T.A,T.B
    PREDS  {T.A = 1}
    ORDER  (unknown)
    SITE   (query site)
    TEMP   false
    PATHS  (none)
    CARD   7.2
    COST   total=7.3 (io=1.2 cpu=2.5 msg=3.0)
    STORE table=_t75d8e01bf480bb16
      TABLES T
      COLS   T.A,T.B
      PREDS  {T.A = 1}
      ORDER  T.B,T.A
      SITE   (query site)
      TEMP   true
      PATHS  (none)
      CARD   7.2
      COST   total=7.3 (io=1.2 cpu=2.5 msg=3.0)
      SORT key=[T.B,T.A] «Glue»
        TABLES T
        COLS   T.A,T.B
        PREDS  {T.A = 1}
        ORDER  T.B,T.A
        SITE   (query site)
        TEMP   false
        PATHS  (none)
        CARD   7.2
        COST   total=7.3 (io=1.2 cpu=2.5 msg=3.0)
        ACCESS(heap) table=T cols=[T.A,T.B] preds=[T.A = 1] «TableAccess#1»
          TABLES T
          COLS   T.A,T.B
          PREDS  {T.A = 1}
          ORDER  (unknown)
          SITE   NY
          TEMP   false
          PATHS  TA(T.A), TB(T.B)
          CARD   7.2
          COST   total=7.3 (io=1.2 cpu=2.5 msg=3.0)
          BUCKETIZED true
          ZETA z
----
UNION(JOIN(ZZ, T.A = U.A, SHIP(site=, FILTER(T.B = 'a"b\c', ACCESS(Index _ixf86b7361459fa527, *, T.A, BUILDINDEX(T.A, STORE(SORT(T.B,T.A, ACCESS(T.A = 1, T, {T.A,T.B}))))))), GET(ACCESS(Index UIX, {U.A}), U, {U.B})), ACCESS(_t75d8e01bf480bb16, *, STORE(SORT(T.B,T.A, ACCESS(T.A = 1, T, {T.A,T.B})))))----
digraph qep {
  rankdir=BT;
  node [shape=box, fontname="monospace", fontsize=10];
  n0 [label="UNION"];
  n1 [label="JOIN(ZZ) preds=[T.A = U.A] residual=[T.B < U.B] «JMeth#9»\ncard=12346 site=LA cost=12345.7"];
  n2 [label="SHIP to=(query site)\ncard=0 cost=0.5"];
  n3 [label="FILTER preds=[T.B = 'a\"b\c']\ncard=0 cost=0.5"];
  n4 [label="ACCESS(index) path=_ixf86b7361459fa527 table=_t75d8e01bf480bb16 key=[T.A]\ncard=3 cost=3.0"];
  n5 [label="BUILDINDEX path=_ixf86b7361459fa527 key=[T.A]\ncard=7 order=T.B,T.A temp cost=7.3"];
  n6 [label="STORE table=_t75d8e01bf480bb16\ncard=7 order=T.B,T.A temp cost=7.3"];
  n7 [label="SORT key=[T.B,T.A] «Glue»\ncard=7 order=T.B,T.A cost=7.3"];
  n8 [label="ACCESS(heap) table=T cols=[T.A,T.B] preds=[T.A = 1] «TableAccess#1»\ncard=7 site=NY cost=7.3"];
  n8 -> n7;
  n7 -> n6;
  n6 -> n5;
  n5 -> n4;
  n4 -> n3;
  n3 -> n2;
  n2 -> n1;
  n9 [label="GET table=U as UU cols=[U.B]"];
  n10 [label="ACCESS(index) path=UIX table=U as UU cols=[U.A]"];
  n10 -> n9;
  n9 -> n1;
  n1 -> n0;
  n11 [label="ACCESS(heap) table=_t75d8e01bf480bb16\ncard=7 cost=7.3"];
  n6 -> n11;
  n11 -> n0;
}
----
UNION
  (est rows=0 cost=0) (never executed)
  JOIN(ZZ) preds=[T.A = U.A] residual=[T.B < U.B] «JMeth#9»
    (est rows=12346 cost=12346) (never executed)
    SHIP to=(query site)
      (est rows=0 cost=0) (never executed)
      FILTER preds=[T.B = 'a"b\c']
        (est rows=0 cost=0) (actual rows=3 loops=2 cost=18 time=2µs) Q-err=3.00
        ACCESS(index) path=_ixf86b7361459fa527 table=_t75d8e01bf480bb16 key=[T.A]
          (est rows=3 cost=3) (never executed)
          BUILDINDEX path=_ixf86b7361459fa527 key=[T.A]
            (est rows=7 cost=7) (never executed)
            STORE table=_t75d8e01bf480bb16
              (est rows=7 cost=7) (never executed)
              SORT key=[T.B,T.A] «Glue»
                (est rows=7 cost=7) (never executed)
                ACCESS(heap) table=T cols=[T.A,T.B] preds=[T.A = 1] «TableAccess#1»
                  (est rows=7 cost=7) (never executed)
    GET table=U as UU cols=[U.B]
      (est rows=0 cost=0) (actual rows=3 loops=2 cost=18 time=2µs) Q-err=3.00
      ACCESS(index) path=UIX table=U as UU cols=[U.A]
        (est rows=0 cost=0) (never executed)
  ACCESS(heap) table=_t75d8e01bf480bb16
    (est rows=7 cost=7) (never executed)
    STORE table=_t75d8e01bf480bb16
      (est rows=7 cost=7) (never executed)
      SORT key=[T.B,T.A] «Glue»
        (est rows=7 cost=7) (never executed)
        ACCESS(heap) table=T cols=[T.A,T.B] preds=[T.A = 1] «TableAccess#1»
          (est rows=7 cost=7) (never executed)
----
JOIN(ZZ) preds=[T.A = U.A] residual=[T.B < U.B] «JMeth#9»`
