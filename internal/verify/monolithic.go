package verify

import (
	"fmt"

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
	for _, s := range segs {
		if s.Disposition == ir.Crashed {
			rep.Crashes++
		}
		if s.Disposition != ir.Crashed && s.Steps > rep.MaxSteps {
			rep.MaxSteps = s.Steps
		}
	}
	return rep, nil
}
