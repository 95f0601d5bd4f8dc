package verify

import (
	"errors"
	"fmt"
	"sort"

	"vsd/internal/click"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/symbex"
)

// This file implements the functional property subsystem (DESIGN.md §6):
// declarative input/output specifications checked compositionally over
// the same Step-1/Step-2 machinery as crash freedom. The paper names
// "filtering correctness" alongside crash freedom and bounded execution
// as the properties a verifiable dataplane must offer; a FuncSpec is the
// general form — a precondition over the symbolic input packet plus a
// postcondition relating the input to the symbolic *output* packet,
// egress, and final metadata of every composed path.

// FuncSpec is a declarative functional property of a pipeline.
//
// Pre constrains the symbolic input (expressions over the entry packet
// array, the packet length, and entry metadata; see the symbex naming
// conventions). Post is consulted once per terminal composed path and
// returns the proof obligation for that path — a 1-bit expression over
// the path's input AND output state, built through the PathInfo
// accessors — or nil when the path carries no obligation (e.g. a TTL
// spec has nothing to say about paths that drop the packet).
//
// The property holds iff, for every feasible path, Pre ∧ pathConstraint
// ∧ ¬Post is unsatisfiable. Feasible violations yield witnesses carrying
// both the concrete input packet and the concrete output packet the
// pipeline would produce for it.
type FuncSpec struct {
	// Name labels the spec in reports.
	Name string
	// Pre holds input assumptions under which the spec is stated.
	Pre []*expr.Expr
	// Post returns the obligation for one terminal path (nil = none).
	// A nil Post function makes the spec a crash-only contract.
	Post func(path *PathInfo) *expr.Expr
	// AllowCrash makes realizable crashing paths spec-compliant. By
	// default a functional spec implies crash freedom on the paths it
	// constrains: a crash produces no output packet to relate.
	AllowCrash bool
}

// PathInfo exposes one terminal composed path to a FuncSpec
// postcondition: how the path ended, which elements it traversed, and
// symbolic access to the input packet, the output packet (the stitched
// store chain the composition built, see DESIGN.md §6), the packet
// length, and the final metadata annotations.
type PathInfo struct {
	disp   ir.Disposition
	egress int
	p      *click.Pipeline
	st     *composed
}

// Disposition reports how the path ended (Emitted, Dropped, Crashed).
func (pi *PathInfo) Disposition() ir.Disposition { return pi.disp }

// Emitted reports whether the path leaves the pipeline at an egress.
func (pi *PathInfo) Emitted() bool { return pi.disp == ir.Emitted }

// Dropped reports whether the path drops the packet.
func (pi *PathInfo) Dropped() bool { return pi.disp == ir.Dropped }

// Egress returns the pipeline egress id for emitted paths, -1 otherwise.
func (pi *PathInfo) Egress() int { return pi.egress }

// EgressElem returns the instance name of the element whose unconnected
// output port the path leaves through ("" unless emitted).
func (pi *PathInfo) EgressElem() string {
	if pi.disp != ir.Emitted || len(pi.st.elems) == 0 {
		return ""
	}
	return pi.p.Elements[pi.st.elems[len(pi.st.elems)-1]].Name()
}

// EgressPort returns the output port the path leaves through (-1 unless
// emitted).
func (pi *PathInfo) EgressPort() int {
	if pi.disp != ir.Emitted || len(pi.st.ports) == 0 {
		return -1
	}
	return pi.st.ports[len(pi.st.ports)-1]
}

// LastElem returns the instance name of the element the path ended in:
// the egress element for emitted paths, the dropping element for drops,
// the faulting element for crashes.
func (pi *PathInfo) LastElem() string {
	if len(pi.st.elems) == 0 {
		return ""
	}
	return pi.p.Elements[pi.st.elems[len(pi.st.elems)-1]].Name()
}

// Visited reports whether the path traversed the named element instance.
func (pi *PathInfo) Visited(inst string) bool {
	for _, e := range pi.st.elems {
		if pi.p.Elements[e].Name() == inst {
			return true
		}
	}
	return false
}

// Len returns the symbolic packet length (unchanged by processing: no
// element resizes the buffer; encapsulation moves the header offset).
func (pi *PathInfo) Len() *expr.Expr { return expr.Var(symbex.PktLenVar, 32) }

// InArray returns the symbolic INPUT packet array (the pipeline entry
// packet), for specs that build field reads themselves — e.g. the
// element-semantics helpers in internal/elements.
func (pi *PathInfo) InArray() *expr.Array { return expr.BaseArray(symbex.PktArrayName) }

// OutArray returns the symbolic OUTPUT packet array: the store chain the
// composed path leaves behind.
func (pi *PathInfo) OutArray() *expr.Array { return pi.st.formulas().pkt }

// In reads n consecutive bytes of the INPUT packet at concrete offset
// off, big-endian (network byte order). n must be 1, 2, 4, or 8.
func (pi *PathInfo) In(off uint64, n int) *expr.Expr {
	return pi.InAt(expr.Const(32, off), n)
}

// InAt is In with a symbolic 32-bit offset.
func (pi *PathInfo) InAt(off *expr.Expr, n int) *expr.Expr {
	return expr.SelectWide(expr.BaseArray(symbex.PktArrayName), off, n)
}

// Out reads n consecutive bytes of the OUTPUT packet — the packet as the
// path's final element leaves it — at concrete offset off, big-endian.
func (pi *PathInfo) Out(off uint64, n int) *expr.Expr {
	return pi.OutAt(expr.Const(32, off), n)
}

// OutAt is Out with a symbolic 32-bit offset.
func (pi *PathInfo) OutAt(off *expr.Expr, n int) *expr.Expr {
	return expr.SelectWide(pi.st.formulas().pkt, off, n)
}

// Meta returns the final value of a metadata annotation slot, or nil
// when no element of the pipeline declares the slot.
func (pi *PathInfo) Meta(slot string) *expr.Expr { return pi.st.formulas().meta[slot] }

// FuncReport is the outcome of checking one FuncSpec.
type FuncReport struct {
	// Spec echoes the spec name.
	Spec string
	// Verified is true when every feasible path satisfies its obligation.
	Verified bool
	// Obligations counts paths whose postcondition needed the solver.
	Obligations int
	// Proved counts obligations discharged as valid (negation unsat).
	Proved int
	// Trivial counts postconditions that folded to true syntactically.
	Trivial int
	// Discharged counts crash paths ruled out by the bad-value analysis.
	Discharged int
	// Unresolved counts obligations left undecided — solver budget,
	// contained engine panics, or a watchdog interrupt; they block
	// Verified.
	Unresolved int
	// UnresolvedCauses carries one line per unresolved obligation, sorted.
	UnresolvedCauses []string
	// Witnesses lists violations: concrete input packets together with
	// the concrete output packet the pipeline produces for them.
	Witnesses []Witness
}

// VerifyFunc checks a functional specification over every feasible
// composed path of the pipeline. Per path it evaluates the spec's
// postcondition symbolically and asks the incremental solver whether
// Pre ∧ pathConstraint ∧ ¬Post is satisfiable; a model is turned into an
// input/output witness pair. Crashing paths violate the spec (unless
// AllowCrash) exactly as in CrashFreedom, including the stateful
// bad-value refinement.
func (v *Verifier) VerifyFunc(p *click.Pipeline, spec FuncSpec) (*FuncReport, error) {
	return v.verifyFunc(p, spec, nil)
}

// verifyFunc is VerifyFunc, handing its walk's certificate to saves.
func (v *Verifier) verifyFunc(p *click.Pipeline, spec FuncSpec, saves *certSaves) (*FuncReport, error) {
	sp := v.tel.main.Begin("property", "funcspec:"+spec.Name)
	defer sp.End()
	rep := &FuncReport{Spec: spec.Name, Verified: true}
	_, _, err := v.walk(p, spec.Pre, saves, func(end pathEnd) error {
		if end.disp == ir.Crashed {
			if spec.AllowCrash {
				return nil
			}
			realizable, err := v.statefulRealizable(p, end.state)
			if err != nil {
				return err
			}
			if !realizable {
				rep.Discharged++
				return nil
			}
			w, err := v.witness(p, end.state, spec.Pre)
			if errors.Is(err, errSpurious) {
				v.countRefinement()
				return nil
			}
			if errors.Is(err, errUnresolved) {
				rep.Unresolved++
				rep.Verified = false
				rep.UnresolvedCauses = append(rep.UnresolvedCauses, unresolvedCause(err))
				return nil
			}
			if err != nil {
				return err
			}
			w.Detail = fmt.Sprintf("spec %s: path crashes (%s: %s)", spec.Name, end.crash.Kind, end.crash.Msg)
			rep.Verified = false
			rep.Witnesses = append(rep.Witnesses, w)
			return nil
		}
		// A nil Post is a crash-only contract: non-crashing paths carry
		// no obligation.
		if spec.Post == nil {
			return nil
		}
		pi := &PathInfo{disp: end.disp, egress: end.egress, p: p, st: end.state}
		post := spec.Post(pi)
		if post == nil || post.IsTrue() {
			if post != nil {
				rep.Trivial++
			}
			return nil
		}
		rep.Obligations++
		lbl := ""
		if v.tel.active() {
			lbl = spec.Name + " @ " + pathName(p, end.state)
		}
		violated, unknown := v.feasibleRoot(end.state, []*expr.Expr{expr.Not(post)}, spec.Pre, "funcspec", lbl)
		if !violated {
			rep.Proved++
			return nil
		}
		if unknown {
			rep.Unresolved++
			rep.Verified = false
			rep.UnresolvedCauses = append(rep.UnresolvedCauses,
				fmt.Sprintf("spec %s: obligation on %s unresolved within solver budget", spec.Name, endName(pi)))
			return nil
		}
		w, err := v.specWitness(p, end.state, spec.Pre, expr.Not(post))
		if errors.Is(err, errSpurious) {
			// The concrete tables discharge the obligation.
			v.countRefinement()
			rep.Proved++
			return nil
		}
		if errors.Is(err, errUnresolved) {
			rep.Unresolved++
			rep.Verified = false
			rep.UnresolvedCauses = append(rep.UnresolvedCauses, unresolvedCause(err))
			return nil
		}
		if err != nil {
			return err
		}
		w.Detail = fmt.Sprintf("spec %s: postcondition violated (%s)", spec.Name, endName(pi))
		rep.Verified = false
		rep.Witnesses = append(rep.Witnesses, w)
		return nil
	})
	if errors.Is(err, errUnresolved) {
		rep.Unresolved++
		rep.Verified = false
		rep.UnresolvedCauses = append(rep.UnresolvedCauses, unresolvedCause(err))
		err = nil
	}
	if err != nil {
		return nil, err
	}
	sortWitnesses(rep.Witnesses)
	sort.Strings(rep.UnresolvedCauses)
	return rep, nil
}

// endName renders how a path terminated, for violation details.
func endName(pi *PathInfo) string {
	switch pi.disp {
	case ir.Emitted:
		return fmt.Sprintf("egress %s[%d]", pi.EgressElem(), pi.EgressPort())
	case ir.Dropped:
		return fmt.Sprintf("dropped at %s", pi.LastElem())
	}
	return "crashed"
}

// specWitness materializes an input/output witness pair for a violated
// obligation: a checkedModel of the path constraint conjoined with the
// negated postcondition. Like witness(), it must only run under visitMu.
func (v *Verifier) specWitness(p *click.Pipeline, st *composed, extraPre []*expr.Expr, negPost *expr.Expr) (w Witness, err error) {
	defer v.capturePanic("spec witness extraction", nil, &err)
	m, err := v.checkedModel(p, st, extraPre, negPost)
	if err != nil {
		return Witness{}, err
	}
	in := packetFromModel(m, v.opts.MinLen, v.opts.MaxLen)
	// The output packet is the path's store chain evaluated byte-by-byte
	// under the model (length is invariant, see PathInfo.Len).
	out := make([]byte, len(in))
	pkt := st.formulas().pkt
	for i := range out {
		b := expr.Eval(expr.Select(pkt, expr.Const(32, uint64(i))), m)
		out[i] = byte(b.Int())
	}
	return Witness{Packet: in, Output: out, Path: pathName(p, st), order: string(certPath(nil, st))}, nil
}
