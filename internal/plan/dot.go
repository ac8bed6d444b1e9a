package plan

import (
	"bytes"
	"fmt"
)

// DOT renders the plan DAG in Graphviz dot syntax, one box per LOLEPOP with
// its parameters and property summary; shared subplans render once, so the
// common-subplan sharing of Section 2 is visible in the picture. Pipe the
// output to `dot -Tsvg` to draw it.
func DOT(root *Node) string {
	b := []byte("digraph qep {\n")
	b = append(b, "  rankdir=BT;\n"...) // arrows point toward the source, as in Figure 1
	b = append(b, "  node [shape=box, fontname=\"monospace\", fontsize=10];\n"...)

	// Nodes are numbered in the order they are first emitted.
	ids := map[*Node]int{}
	var emit func(n *Node)
	emit = func(n *Node) {
		if _, ok := ids[n]; ok {
			return
		}
		ids[n] = len(ids)
		b = fmt.Appendf(b, "  n%d [label=\"", ids[n])
		label := len(b)
		b = n.AppendDescribe(b)
		if n.Props != nil {
			b = n.Props.AppendSummary(append(b, `\n`...))
		}
		if bytes.IndexByte(b[label:], '"') >= 0 {
			b = append(b[:label], bytes.ReplaceAll(b[label:], []byte(`"`), []byte(`\"`))...)
		}
		b = append(b, "\"];\n"...)
		for _, in := range n.Inputs {
			emit(in)
			b = fmt.Appendf(b, "  n%d -> n%d;\n", ids[in], ids[n])
		}
	}
	emit(root)
	return string(append(b, "}\n"...))
}
