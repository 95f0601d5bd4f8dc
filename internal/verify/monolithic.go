package verify

import (
	"fmt"
	"sort"

	"vsd/internal/click"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/smt"
	"vsd/internal/symbex"
)

// MonolithicReport is the outcome of the baseline whole-pipeline
// verification.
type MonolithicReport struct {
	Completed     bool // false when the budget was exhausted
	Crashes       int  // crashing paths found
	Paths         int  // total feasible paths explored
	MaxSteps      int64
	SymbexStats   symbex.Stats
	BudgetReached string // description of the exhausted budget, if any
}

// Monolithic verifies the pipeline the way the paper's baseline does:
// inline everything into one program and symbolically execute it whole,
// with no decomposition, no summary reuse, and loops unrolled. The
// explored path count is ~2^(k·n) instead of the compositional ~k·2^n,
// which is why the paper's baseline did not finish within 12 hours.
// maxSegments bounds the explored segments (0 = symbex's default), which
// makes the blow-up observable at benchmark scale instead of wall-clock
// scale.
func Monolithic(p *click.Pipeline, opts Options, maxSegments int) (*MonolithicReport, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	prog, err := click.Inline(p)
	if err != nil {
		return nil, fmt.Errorf("verify: inlining: %w", err)
	}
	engine := symbex.New(smt.New(opts.solverOptions()), symbex.Options{
		LoopMode:    symbex.LoopUnroll, // "without ... any of the presented ideas"
		MaxSegments: maxSegments,
	})
	// Pipeline ingress semantics match the compositional verifier:
	// metadata annotations start zeroed.
	input := symbex.DefaultInput(opts.MinLen, opts.MaxLen)
	input.Meta = map[string]*expr.Expr{}
	for slot, w := range prog.MetaSlots {
		input.Meta[slot] = expr.Const(w, 0)
	}
	segs, err := engine.Run(prog, input)
	rep := &MonolithicReport{SymbexStats: engine.Stats()}
	if err != nil {
		rep.BudgetReached = err.Error()
		return rep, nil
	}
	rep.Completed = true
	rep.Paths = len(segs)
	// The leaf rule, as in the compositional walk: a crash counts and a
	// path attains the bound only if the concrete tables allow it.
	concrete := func(s *symbex.Segment) bool {
		if len(s.Lookups) == 0 {
			return true
		}
		lks := make([]pathLookup, len(s.Lookups))
		for i, lk := range s.Lookups {
			tbl, _ := prog.TableByName(lk.Table)
			lks[i] = pathLookup{TableLookup: lk, tbl: tbl}
		}
		cons := append(append(append([]*expr.Expr{}, input.Pre...), s.Cond...), tableConstraint(lks))
		r, _ := engine.Solver.Check(cons)
		return r != smt.Unsat
	}
	var ends []*symbex.Segment
	for _, s := range segs {
		if s.Disposition == ir.Crashed {
			if concrete(s) {
				rep.Crashes++
			}
			continue
		}
		ends = append(ends, s)
	}
	sort.SliceStable(ends, func(i, j int) bool { return ends[i].Steps > ends[j].Steps })
	for _, s := range ends {
		if concrete(s) {
			rep.MaxSteps = s.Steps
			break
		}
	}
	return rep, nil
}
