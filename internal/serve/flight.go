package serve

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"stars/internal/flight"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/prof"
	"stars/internal/provenance"
	"stars/internal/sqlparse"
)

// fnvHex digests a string to the repository's standard 16-hex-digit FNV-64a
// form (the same shape as plan fingerprints and provenance checksums). The
// daemon uses it at boot to stamp the catalog epoch and rule-set hash every
// flight record carries.
func fnvHex(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// foldFlight folds one finished request into the flight recorder and runs
// the watchdog against its template's history h. planFP is res.Best's
// fingerprint as the response already rendered it, maxQ the request's worst
// per-operator Q-error as the ledger folded it. Called by fold with s.mu
// held; no-op (and allocation-free) when recording is disabled.
func (s *Server) foldFlight(reqID, tmpl string, req OptimizeRequest, h *flight.History, maxQ float64,
	res *opt.Result, planFP string, status int, wall time.Duration, executed bool) flight.Observation {
	if s.flight == nil {
		return flight.Observation{}
	}
	rec := flight.Record{
		Req: reqID, Template: tmpl, SQL: req.SQL, Status: status,
		WallNS: wall.Nanoseconds(), Parallelism: s.cfg.Parallelism,
		CatalogEpoch: s.catalogEpoch, RulesHash: s.rulesHash,
		Executed: executed, MaxQError: maxQ,
	}
	if res != nil && res.Best != nil {
		rec.PlanFP = planFP
		rec.ShapeFP = res.Best.ShapeFingerprint()
		rec.EstCost = res.Best.Props.Cost.Total
		rec.EstRows = res.Best.Props.Card
	}

	o := s.flight.Observe(rec)
	s.flight.Judge(h, &o)
	s.reg.Counter("flight_records_total").Add(1)
	return o
}

// fileIncident counts a triggering observation's anomalies and files its
// incident bundle.
func (s *Server) fileIncident(o flight.Observation, req OptimizeRequest, tmpl string, sink *obs.Sink, res *opt.Result) {
	for _, t := range o.Triggers {
		s.reg.Counter(`flight_anomaly_total{kind="` + t.Kind + `"}`).Add(1)
		if t.Kind == flight.KindPlanFlip {
			s.reg.Counter("plan_flip_total").Add(1)
		}
	}
	inc, err := s.flight.File(o, s.captureRequest(req, tmpl, sink, res))
	if err != nil {
		s.reg.Counter("flight_incident_write_errors_total").Add(1)
		s.cfg.Log.Printf("flight: %v", err)
	}
	if inc != nil {
		s.reg.Counter("flight_incidents_total").Add(1)
		s.cfg.Log.Printf("flight: incident %s (%s): %s", inc.ID, inc.Kind, inc.Triggers[0].Detail)
	}
}

// captureRequest builds the self-contained replay bundle for one anomalous
// request: its SQL, the catalog as it stands right now (a stats mutation
// since boot is exactly what a plan-flip capture wants on record), the rule
// text, the options, the full event trace, the derivation DAG, and the
// self-profile. Only runs on a watchdog trigger, so its cost is off the
// steady-state path — including, for a request that ran without the
// search-step stream, optimizing the query a second time into a tracing
// sink: optimization is deterministic, so the second run's trace and DAG
// are the first's. The profile stays the original request's, copied: the
// sink's rows go back to the pool with it.
func (s *Server) captureRequest(req OptimizeRequest, tmpl string, sink *obs.Sink, res *opt.Result) flight.Capture {
	w := s.cfg.Options.Weights
	cap := flight.Capture{
		SQL:          req.SQL,
		Template:     tmpl,
		Rules:        s.rulesText,
		RulesHash:    s.rulesHash,
		CatalogEpoch: s.catalogEpoch,
		Options: flight.CapturedOptions{
			Parallelism:       s.cfg.Parallelism,
			JoinRoot:          s.cfg.Options.JoinRoot,
			CartesianProducts: s.cfg.Options.CartesianProducts,
			NoCompositeInners: s.cfg.Options.NoCompositeInners,
			KeepAllGlue:       s.cfg.Options.KeepAllGlue,
			DisablePruning:    s.cfg.Options.DisablePruning,
			WeightIO:          w.IO, WeightCPU: w.CPU, WeightMsg: w.Msg, WeightByte: w.Byte,
		},
		Profile: prof.FromSink(sink).Clone(),
	}
	if b, err := s.cfg.Catalog.MarshalJSONIndent(); err == nil {
		cap.Catalog = b
	} else {
		s.cfg.Log.Printf("flight: catalog capture: %v", err)
	}
	events := sink.Events()
	if res != nil && !sink.Tracing() {
		traced := obs.NewRequestSink(sink.Tag())
		var again *opt.Result
		g, err := sqlparse.Parse(req.SQL, s.cfg.Catalog)
		if err == nil {
			again, err = opt.New(s.cfg.Catalog, s.optimizerOptions(traced)).Optimize(g)
		}
		if err != nil {
			s.cfg.Log.Printf("flight: re-trace: %v", err)
		} else {
			defer again.Release()
			res = again
			// The second run repeated the coverage summary; everything
			// else the request recorded (serve.request*, exec.feedback)
			// follows its trace.
			own := events
			events = traced.Events()
			for _, e := range own {
				if e.Name != obs.EvAltCoverage && e.Name != obs.EvVeneerCoverage {
					events = append(events, e)
				}
			}
		}
	}
	cap.Events = make([]obs.WireEvent, 0, len(events))
	for _, e := range events {
		cap.Events = append(cap.Events, obs.Wire(sink.Tag(), e))
	}
	if res != nil && res.Obs.Tracing() {
		if dag, err := provenance.FromResult(res); err == nil {
			var buf bytes.Buffer
			if err := dag.WriteJSON(&buf); err == nil {
				cap.Provenance = buf.Bytes()
				cap.ProvenanceChecksum = dag.Checksum()
			}
		} else {
			s.cfg.Log.Printf("flight: provenance capture: %v", err)
		}
	}
	return cap
}

// incidentSummary is one row of the GET /incidents listing.
type incidentSummary struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	Time     time.Time `json:"time"`
	Req      string    `json:"req,omitempty"`
	Template string    `json:"template"`
	SQL      string    `json:"sql"`
	PlanFP   string    `json:"plan_fp,omitempty"`
	Detail   string    `json:"detail"`
}

// handleIncidents lists the in-memory incident store, oldest first.
func (s *Server) handleIncidents(w http.ResponseWriter, _ *http.Request) {
	incs := s.flight.Incidents()
	out := struct {
		Schema    string            `json:"schema"`
		Enabled   bool              `json:"enabled"`
		Count     int               `json:"count"`
		Incidents []incidentSummary `json:"incidents"`
	}{Schema: flight.IncidentSchema, Enabled: s.flight != nil, Incidents: []incidentSummary{}}
	for _, inc := range incs {
		out.Incidents = append(out.Incidents, incidentSummary{
			ID: inc.ID, Kind: inc.Kind, Time: inc.Time, Req: inc.Record.Req,
			Template: inc.Record.Template, SQL: inc.Record.SQL, PlanFP: inc.Record.PlanFP,
			Detail: inc.Triggers[0].Detail, // File files no trigger-free observation
		})
	}
	out.Count = len(out.Incidents)
	s.writeJSON(w, http.StatusOK, out)
}

// handleIncident serves one full incident bundle in its canonical form —
// byte-identical to the file File writes to the incident directory.
func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	inc := s.flight.Incident(r.PathValue("id"))
	if inc == nil {
		s.writeError(w, http.StatusNotFound, "", fmt.Errorf("no such incident %q", r.PathValue("id")))
		return
	}
	b, err := flight.MarshalIncident(inc)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleDebugFlight renders the recorder's live state: configuration,
// census, per-template rolling baselines, and the recent-request ring.
func (s *Server) handleDebugFlight(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Schema       string                 `json:"schema"`
		Enabled      bool                   `json:"enabled"`
		CatalogEpoch string                 `json:"catalog_epoch,omitempty"`
		RulesHash    string                 `json:"rules_hash,omitempty"`
		IncidentDir  string                 `json:"incident_dir,omitempty"`
		Stats        flight.Stats           `json:"stats"`
		Templates    []flight.TemplateState `json:"templates"`
		Recent       []flight.Record        `json:"recent"`
	}{
		Schema:    "stars/flight/v1",
		Enabled:   s.flight != nil,
		Stats:     flight.Stats{ByKind: map[string]int64{}},
		Templates: []flight.TemplateState{},
		Recent:    []flight.Record{},
	}
	if s.flight != nil {
		out.CatalogEpoch, out.RulesHash, out.IncidentDir = s.catalogEpoch, s.rulesHash, s.cfg.Flight.IncidentDir
		out.Stats = s.flight.Stats()
		out.Templates = s.flightTemplates()
		out.Stats.Templates = len(out.Templates)
		out.Recent = s.flight.Recent()
	}
	s.writeJSON(w, http.StatusOK, out)
}
