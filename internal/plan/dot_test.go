package plan

import (
	"strings"
	"testing"
)

func TestDOTRendersSharedDAGOnce(t *testing.T) {
	shared := scan("T")
	shared.Props = &Props{Rel: &Rel{Tables: tableSet("T")}, Card: 5}
	filter := &Node{Op: OpFilter, Preds: predSet(pred("T", "A", 1)), Inputs: []*Node{shared}}
	filter.Props = &Props{Rel: &Rel{Tables: tableSet("T")}, Card: 1}
	j := &Node{Op: OpJoin, Flavor: MethodNL, Inputs: []*Node{shared, filter}}
	j.Props = &Props{Rel: &Rel{Tables: tableSet("T")}, Card: 5}

	out := DOT(j)
	if !strings.HasPrefix(out, "digraph qep {") || !strings.HasSuffix(out, "}\n") {
		t.Fatalf("not a dot digraph:\n%s", out)
	}
	// The shared scan appears as exactly one node declaration but two edges.
	if strings.Count(out, "ACCESS(heap)") != 1 {
		t.Errorf("shared subplan must render once:\n%s", out)
	}
	if strings.Count(out, "->") != 3 {
		t.Errorf("expected 3 edges (scan->join, scan->filter, filter->join):\n%s", out)
	}
	for _, want := range []string{"JOIN(NL)", "FILTER", "card=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}
