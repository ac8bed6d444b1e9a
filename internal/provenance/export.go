package provenance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"stars/internal/jsonw"
)

// SchemaVersion tags the JSON export; bump on incompatible changes.
const SchemaVersion = "stars/provenance/v1"

// jsonDAG is the stable wire form ReadJSON decodes: fields are sorted and
// deterministic so exports diff cleanly and round-trip losslessly.
type jsonDAG struct {
	Schema     string      `json:"schema"`
	Best       string      `json:"best,omitempty"`
	Plans      []*Plan     `json:"plans"`
	Rejections []Rejection `json:"rejections,omitempty"`
}

// WriteJSON writes the DAG in the stable JSON schema (plans sorted by
// fingerprint): AppendJSON's bytes indented by two spaces, newline-ended.
func (d *DAG) WriteJSON(w io.Writer) error {
	var jw jsonw.Writer
	d.AppendJSON(&jw)
	if err := jw.Err(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, append(jw.B, '\n'), "", "  "); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// AppendJSON writes the DAG's stable JSON export to w compactly, as
// encoding/json writes jsonDAG: the form a serve reply embeds.
func (d *DAG) AppendJSON(w *jsonw.Writer) {
	w.Open('{')
	w.Key("schema").String(SchemaVersion)
	if d.BestFP != "" {
		w.Key("best").String(d.BestFP)
	}
	w.Key("plans").Open('[')
	for _, p := range d.sorted() {
		w.Open('{')
		w.Key("fp").String(p.FP)
		w.Key("desc").String(p.Desc)
		w.OmitEmpty("origin", p.Origin)
		w.OmitEmpty("tables", p.Tables)
		w.Key("cost").Float(p.Cost)
		w.OmitZero("card", p.Card)
		if len(p.Inputs) > 0 {
			w.Key("inputs").Strings(p.Inputs)
		}
		w.OmitFalse("retained", p.Retained)
		w.OmitFalse("best", p.Best)
		w.OmitFalse("veneer", p.Veneer)
		w.OmitEmpty("pruned_by", p.PrunedBy)
		w.OmitZero("pruned_by_cost", p.PrunedByCost)
		w.OmitFalse("evicted", p.Evicted)
		w.OmitEmpty("bounded_by", p.BoundedBy)
		w.OmitZero("bounded_by_cost", p.BoundedByCost)
		w.Close('}')
	}
	w.Close(']')
	if len(d.Rejections) > 0 {
		w.Key("rejections").Open('[')
		for _, r := range d.Rejections {
			w.Open('{')
			w.Key("rule").String(r.Rule)
			w.Key("alt").Int(int64(r.Alt))
			w.OmitEmpty("cond", r.Cond)
			if r.Depth != 0 {
				w.Key("depth").Int(int64(r.Depth))
			}
			w.Close('}')
		}
		w.Close(']')
	}
	w.Close('}')
}

// Checksum digests the DAG's canonical JSON export into a 16-hex-digit
// FNV-64a — a cheap stable identity for a whole search space, the way
// plan.Node.Fingerprint identifies one plan. Two DAGs with equal checksums
// render identically, so an incident bundle can record the captured space's
// checksum and a replay can cite it before (or instead of) a full Diff.
func (d *DAG) Checksum() string {
	h := fnv.New64a()
	d.WriteJSON(h) // fnv's Write never fails, so neither does WriteJSON here
	return fmt.Sprintf("%016x", h.Sum64())
}

// ReadJSON reconstructs a DAG from WriteJSON output.
func ReadJSON(r io.Reader) (*DAG, error) {
	var in jsonDAG
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("provenance: decoding DAG: %w", err)
	}
	if in.Schema != SchemaVersion {
		return nil, fmt.Errorf("provenance: schema %q, want %q", in.Schema, SchemaVersion)
	}
	d := &DAG{BestFP: in.Best, Plans: make(map[string]*Plan, len(in.Plans)), Rejections: in.Rejections}
	for _, p := range in.Plans {
		d.Plans[p.FP] = p
	}
	return d, nil
}

// WriteDOT renders the derivation DAG in Graphviz dot syntax: solid edges
// point from input stream to consuming operator (as in the paper's Figure
// 1), the winning chain is bold green, retained-but-unchosen plans plain,
// and pruned plans dashed gray with a red "dominated by" edge to their
// dominator. Pipe to `dot -Tsvg` to draw the search space.
func (d *DAG) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph provenance {\n")
	b.WriteString("  rankdir=BT;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\", fontsize=9];\n")
	for _, n := range d.sorted() {
		label := n.Desc
		if n.Origin != "" {
			label += "\\n" + n.Origin
		}
		label += fmt.Sprintf("\\ncost=%.1f", n.Cost)
		label += "\\n" + n.FP
		attrs := fmt.Sprintf("label=%s", dotQuote(label))
		switch n.Status() {
		case "best":
			attrs += `, color="#1a7f37", penwidth=2`
		case "pruned":
			attrs += `, style=dashed, color=gray50, fontcolor=gray35`
		case "derived":
			attrs += `, style=dotted, color=gray70, fontcolor=gray50`
		}
		fmt.Fprintf(&b, "  %s [%s];\n", dotQuote(n.FP), attrs)
	}
	for _, n := range d.sorted() {
		for _, in := range n.Inputs {
			if d.Plans[in] == nil {
				continue
			}
			attrs := ""
			if n.Best && d.Plans[in].Best {
				attrs = ` [color="#1a7f37", penwidth=2]`
			}
			fmt.Fprintf(&b, "  %s -> %s%s;\n", dotQuote(in), dotQuote(n.FP), attrs)
		}
		if n.Status() == "pruned" {
			verb := "dominated by"
			if n.Evicted {
				verb = "evicted by"
			}
			fmt.Fprintf(&b, "  %s -> %s [style=dashed, color=\"#cf222e\", fontcolor=\"#cf222e\", label=%s];\n",
				dotQuote(n.FP), dotQuote(n.PrunedBy), dotQuote(verb))
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// dotQuote renders a double-quoted DOT string with embedded quotes escaped.
// Label text arrives with its "\n" line separators already written as the
// two-character escape, so backslashes must pass through untouched.
func dotQuote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	b.WriteByte('"')
	return b.String()
}
