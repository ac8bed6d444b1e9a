package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around the
// call; the program itself carries no tracing of the benchmark's.
type span struct {
	Name   string
	Req    string // request id shared by the spans of one operation
	Parent int    // index of the causing span, -1 for a root
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name, req string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.epoch)
	return s.End - s.Start
}

// time records fn as a child span of parent.
func (t *tracer) time(name, req string, parent int, fn func()) time.Duration {
	id := t.begin(name, req, parent)
	fn()
	return t.end(id)
}

// selfTimes returns each span's duration minus the part of its interval that
// its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		sort.Slice(kids[i], func(a, b int) bool { return spans[kids[i][a]].Start < spans[kids[i][b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeChromeTrace writes the spans as Chrome-trace complete events; every
// operation gets its own row (tid) so its spans nest visibly.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	events := make([]event, 0, len(spans))
	rows := map[string]int{}
	for _, s := range spans {
		if _, ok := rows[s.Req]; !ok {
			rows[s.Req] = len(rows) + 1
		}
		args := map[string]string{"req": s.Req}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Name
		}
		events = append(events, event{Name: s.Name, Ph: "X", Pid: 1, Tid: rows[s.Req], Args: args,
			Ts: float64(s.Start) / float64(time.Microsecond), Dur: float64(s.End-s.Start) / float64(time.Microsecond)})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
