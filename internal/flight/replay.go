package flight

import (
	"bytes"
	"fmt"

	"stars/internal/catalog"
	"stars/internal/cost"
	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/provenance"
	"stars/internal/sqlparse"
	"stars/internal/star"
)

// ReplayResult compares a fresh optimization of an incident's captured
// inputs against what the daemon saw at capture time — time-travel
// debugging for the optimizer.
type ReplayResult struct {
	// Fingerprint is the replayed best plan's fingerprint; CapturedFP the
	// one the incident recorded. When they differ, the environment (code
	// version, extensions) changed between capture and replay.
	Fingerprint string
	CapturedFP  string
	// Checksum and CapturedChecksum digest the two provenance DAGs;
	// Identical reports them byte-equal.
	Checksum         string
	CapturedChecksum string
	Identical        bool
	// Diff details the divergence when the DAGs differ and the capture
	// embedded one (nil otherwise).
	Diff *provenance.DiffReport
	// DAG is the replayed derivation DAG, for export.
	DAG *provenance.DAG
	// Result is the fresh optimization, for inspection.
	Result *opt.Result
}

// FingerprintMatch reports whether the replay chose the captured plan.
func (r *ReplayResult) FingerprintMatch() bool {
	return r.CapturedFP != "" && r.Fingerprint == r.CapturedFP
}

// Replay re-optimizes an incident's captured query from its captured
// catalog, rules, and options, rebuilds the derivation DAG, and diffs it
// against the captured one. The incident must carry a catalog and rules
// text (serve-filed bundles always do).
func Replay(inc *Incident) (*ReplayResult, error) {
	if inc == nil {
		return nil, fmt.Errorf("flight: replay: nil incident")
	}
	cap := inc.Capture
	if len(cap.Catalog) == 0 {
		return nil, fmt.Errorf("flight: replay %s: bundle carries no catalog", inc.ID)
	}
	if cap.Rules == "" {
		return nil, fmt.Errorf("flight: replay %s: bundle carries no rules", inc.ID)
	}
	cat, err := catalog.Parse(cap.Catalog)
	if err != nil {
		return nil, fmt.Errorf("flight: replay %s: %w", inc.ID, err)
	}
	rules, err := star.ParseRules(cap.Rules)
	if err != nil {
		return nil, fmt.Errorf("flight: replay %s: rules: %w", inc.ID, err)
	}
	g, err := sqlparse.Parse(cap.SQL, cat)
	if err != nil {
		return nil, fmt.Errorf("flight: replay %s: sql: %w", inc.ID, err)
	}
	co := cap.Options
	opts := opt.Options{
		CartesianProducts: co.CartesianProducts,
		NoCompositeInners: co.NoCompositeInners,
		KeepAllGlue:       co.KeepAllGlue,
		DisablePruning:    co.DisablePruning,
		Weights:           cost.Weights{IO: co.WeightIO, CPU: co.WeightCPU, Msg: co.WeightMsg, Byte: co.WeightByte},
		Rules:             rules,
		JoinRoot:          co.JoinRoot,
		Parallelism:       co.Parallelism,
		Obs:               obs.NewSink(),
	}
	res, err := opt.New(cat, opts).Optimize(g)
	if err != nil {
		return nil, fmt.Errorf("flight: replay %s: optimize: %w", inc.ID, err)
	}
	dag, err := provenance.FromResult(res)
	if err != nil {
		return nil, fmt.Errorf("flight: replay %s: provenance: %w", inc.ID, err)
	}
	out := &ReplayResult{
		Fingerprint:      res.Best.Fingerprint(),
		CapturedFP:       inc.Record.PlanFP,
		Checksum:         dag.Checksum(),
		CapturedChecksum: cap.ProvenanceChecksum,
		DAG:              dag,
		Result:           res,
	}
	if len(cap.Provenance) > 0 {
		captured, err := provenance.ReadJSON(bytes.NewReader(cap.Provenance))
		if err != nil {
			return nil, fmt.Errorf("flight: replay %s: captured provenance: %w", inc.ID, err)
		}
		if out.CapturedChecksum == "" {
			out.CapturedChecksum = captured.Checksum()
		}
		rep := provenance.Diff(captured, dag)
		out.Diff = rep
		out.Identical = !rep.Changed()
	} else {
		// No embedded DAG: fall back to the checksum, then the plan
		// fingerprint alone.
		if out.CapturedChecksum != "" {
			out.Identical = out.Checksum == out.CapturedChecksum
		} else {
			out.Identical = out.FingerprintMatch()
		}
	}
	return out, nil
}
