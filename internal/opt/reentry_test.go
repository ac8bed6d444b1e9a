package opt

import (
	"fmt"
	"sync/atomic"
	"testing"

	"stars/internal/plan"
	"stars/internal/star"
	"stars/internal/workload"
)

// TestHelperReentersEngineMidArguments: the engine's value stack is strictly
// LIFO and addressed by offset, so a helper may reference a STAR from Go while
// its caller's argument list is half evaluated — even when that reference
// nests deep enough to outgrow (and so move) the stack. JoinRoot is replaced
// by both(mark(T1), again(T1, T2, P), PermutedJoin(T1, T2, P), T1): mark's value
// sits in the caller's frame while again descends 150 references through
// en.EvalRule before reaching PermutedJoin, and both must still read it — and
// the SAP again returned from the scratch — afterwards. The search sees every
// plan twice and must choose exactly what the built-in JoinRoot chooses, at
// either parallelism, with released scratch slots cleared and arena slots
// poisoned.
func TestHelperReentersEngineMidArguments(t *testing.T) {
	arenaPoison = true
	defer func() { arenaPoison = false }()
	const depth = 150 // × Descend's frame: far past what a plain search pushes

	rules := star.DefaultRules()
	over, err := star.ParseRules(`
star JoinRoot(T1, T2, P) = both(mark(T1), again(T1, T2, P), PermutedJoin(T1, T2, P), T1)
star Descend(T1, T2, P, n) = {
  | PermutedJoin(T1, T2, P) if bottom(n)
  | Descend(T1, T2, P, dec(n)) otherwise
} where
  a = dec(n)
  b = dec(a)
`)
	if err != nil {
		t.Fatal(err)
	}
	rules.Merge(over)
	var reentries, checked atomic.Int64 // helpers run on the enumeration workers
	prepare := func(en *star.Engine) {
		en.Register(star.Signature{Name: "mark", ArityUnknown: true}, func(_ *star.Engine, args []star.Value) (star.Value, error) {
			return star.StrValue("mark:" + args[0].String()), nil
		})
		en.Register(star.Signature{Name: "bottom", ArityUnknown: true}, func(_ *star.Engine, args []star.Value) (star.Value, error) {
			return star.BoolValue(args[0].Num <= 0), nil
		})
		en.Register(star.Signature{Name: "dec", ArityUnknown: true}, func(_ *star.Engine, args []star.Value) (star.Value, error) {
			return star.NumValue(args[0].Num - 1), nil
		})
		en.Register(star.Signature{Name: "again", ArityUnknown: true}, func(en *star.Engine, args []star.Value) (star.Value, error) {
			reentries.Add(1)
			want := args[0].String()
			sap, err := en.EvalRule("Descend", []star.Value{args[0], args[1], args[2], star.NumValue(depth)})
			if got := args[0].String(); got != want {
				return star.Null, fmt.Errorf("again's own arguments changed under the nested reference: %s, was %s", got, want)
			}
			return star.SAPValue(sap), err
		})
		en.Register(star.Signature{Name: "both", Result: star.KindSAP, ArityUnknown: true}, func(_ *star.Engine, args []star.Value) (star.Value, error) {
			checked.Add(1)
			if want := "mark:" + args[3].String(); args[0].Str != want {
				return star.Null, fmt.Errorf("first argument reads %q after the nested reference, want %q", args[0].Str, want)
			}
			for _, sap := range [][]*plan.Node{args[1].SAP, args[2].SAP} {
				for _, p := range sap {
					if p == nil || p.Poisoned() {
						return star.Null, fmt.Errorf("a plan of an argument SAP was released under the caller")
					}
				}
			}
			if len(args[1].SAP) != len(args[2].SAP) {
				return star.Null, fmt.Errorf("nested reference built %d plans, the direct one %d", len(args[1].SAP), len(args[2].SAP))
			}
			return star.SAPValue(append(append([]*plan.Node(nil), args[1].SAP...), args[2].SAP...)), nil
		})
	}

	cat, g := workload.ChainCatalog(5), workload.ChainQuery
	plain, err := New(cat, Options{Parallelism: 1}).Optimize(g(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		reentries.Store(0)
		checked.Store(0)
		res, err := New(cat, Options{Rules: rules, Prepare: prepare, Parallelism: par}).Optimize(g(5))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if reentries.Load() == 0 || checked.Load() != reentries.Load() {
			t.Fatalf("parallelism %d: %d nested references, %d checked", par, reentries.Load(), checked.Load())
		}
		if res.Best.Fingerprint() != plain.Best.Fingerprint() || res.Best.Props.Cost.Total != plain.Best.Props.Cost.Total {
			t.Errorf("parallelism %d: best %s at %v, the built-in JoinRoot chooses %s at %v", par,
				res.Best.Fingerprint(), res.Best.Props.Cost.Total, plain.Best.Fingerprint(), plain.Best.Props.Cost.Total)
		}
		res.Release()
	}
}
