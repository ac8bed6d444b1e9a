package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WireEvent is the JSON wire form of one event — the framing shared by the
// NDJSON batch export, a server's live /events stream, and the event trace
// embedded in flight-recorder incident bundles, so a jq filter written for
// any one of them reads the others.
type WireEvent struct {
	Seq   int64   `json:"seq"`
	TUs   float64 `json:"t_us"`
	Kind  string  `json:"kind"`
	Name  string  `json:"name"`
	Req   string  `json:"req,omitempty"`
	A1    string  `json:"a1,omitempty"`
	A2    string  `json:"a2,omitempty"`
	A3    string  `json:"a3,omitempty"`
	Depth int     `json:"depth,omitempty"`
	Span  int64   `json:"span,omitempty"`
	N1    int64   `json:"n1,omitempty"`
	N2    int64   `json:"n2,omitempty"`
	F1    float64 `json:"f1,omitempty"`
	F2    float64 `json:"f2,omitempty"`
}

// Wire converts an event of the sink tagged req (Sink.Tag) to its wire form.
// Plan identities leave as the 16 hex digits plan.Node.Fingerprint shows: a
// nonzero P1 is a2, a nonzero P2 is a3. A coverage summary's Tally leaves as
// its packed a2/a3 text — the only place that text is made.
func Wire(req string, e Event) WireEvent {
	w := WireEvent{
		Seq: e.Seq, TUs: float64(e.T.Microseconds()), Kind: e.Kind.String(),
		Name: e.Name, Req: req, A1: e.A1, A2: e.A2, A3: e.A3,
		Depth: int(e.Depth), Span: e.Span, N1: e.N1, N2: e.N2, F1: e.F1, F2: e.F2,
	}
	if e.Tally != nil {
		w.A2, w.A3 = e.Tally.text()
	}
	if e.P1 != 0 {
		w.A2 = hex16(e.P1)
	}
	if e.P2 != 0 {
		w.A3 = hex16(e.P2)
	}
	return w
}

// hex16 renders a plan identity as plan.FormatID does — obs sits below plan
// and cannot import it — zero-padded to 16 digits.
func hex16(id uint64) string {
	s := strconv.FormatUint(id, 16)
	return "0000000000000000"[len(s):] + s
}

// EncodeNDJSON writes one event as a single NDJSON line — the framing both
// the batch export below and a server's live /events stream use, so a tail
// of the live stream is jq-compatible with a saved trace file.
func EncodeNDJSON(w io.Writer, req string, e Event) error {
	return json.NewEncoder(w).Encode(Wire(req, e))
}

// WriteNDJSON writes the event log as newline-delimited JSON, one event per
// line — the machine-readable export for ad-hoc analysis (jq, DuckDB, ...).
func (s *Sink) WriteNDJSON(w io.Writer) error {
	if s == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range s.Events() {
		if err := enc.Encode(Wire(s.tag, e)); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event format (the JSON Array
// / JSON Object formats both read in chrome://tracing and Perfetto).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON Object container format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the event log in Chrome's trace_event JSON Object
// format: spans become duration ("B"/"E") events, instants become "i"
// events, so an optimization/execution run opens directly in
// chrome://tracing or https://ui.perfetto.dev.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	events := s.Events()
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayTimeUnit: "ms"}
	for _, e := range events {
		ce := chromeEvent{Name: e.Name, TsUs: float64(e.T.Nanoseconds()) / 1e3, Pid: 1, Tid: 1}
		if e.A1 != "" {
			ce.Name = e.Name + " " + e.A1
		}
		switch e.Kind {
		case KindSpanBegin:
			ce.Phase = "B"
			ce.Args = chromeArgs(s.tag, e)
		case KindSpanEnd:
			ce.Phase = "E"
			ce.Args = map[string]any{"n1": e.N1}
		default:
			ce.Phase = "i"
			ce.Scope = "t"
			ce.Args = chromeArgs(s.tag, e)
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// chromeArgs packs an event's payload, as Wire renders it, into trace-viewer
// args.
func chromeArgs(req string, e Event) map[string]any {
	w := Wire(req, e)
	args := map[string]any{}
	if req != "" {
		args["req"] = req
	}
	if w.A2 != "" {
		args["detail"] = w.A2
	}
	if w.A3 != "" {
		args["detail2"] = w.A3
	}
	if w.Depth != 0 {
		args["depth"] = w.Depth
	}
	if e.N1 != 0 {
		args["n1"] = e.N1
	}
	if e.N2 != 0 {
		args["n2"] = e.N2
	}
	if e.F1 != 0 {
		args["f1"] = e.F1
	}
	if e.F2 != 0 {
		args["f2"] = e.F2
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// DumpMetrics is a convenience wrapper rendering the sink's registry in
// Prometheus text format; the nil sink writes nothing.
func (s *Sink) DumpMetrics(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.Registry().WritePrometheus(w)
}

// Summary returns a one-line event/metric census for logs.
func (s *Sink) Summary() string {
	if s == nil {
		return "obs: disabled"
	}
	return fmt.Sprintf("obs: %d events", s.Len())
}
