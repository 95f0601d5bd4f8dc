package symbex

import (
	"errors"
	"fmt"

	"vsd/internal/bv"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/smt"
)

// Input variable naming conventions. Composition (internal/verify)
// substitutes these away when stitching segments.
const (
	// PktArrayName is the base name of the symbolic input packet array.
	PktArrayName = "pkt"
	// PktLenVar is the 32-bit symbolic packet length variable.
	PktLenVar = "len"
	// MetaVarPrefix prefixes input metadata annotation variables
	// ("m.<slot>").
	MetaVarPrefix = "m."
	// StateReadPrefix prefixes the fresh variables returned by symbolic
	// state reads ("sr.<store>.<n>").
	StateReadPrefix = "sr."
)

// MetaVar returns the canonical input variable for a metadata slot.
func MetaVar(slot string, w bv.Width) *expr.Expr {
	return expr.Var(MetaVarPrefix+slot, w)
}

// StateAccess logs one symbolic state read: the store, the key
// expression, and the fresh variable holding the unconstrained result.
// Seq is the access-order position of the read among all state accesses
// (reads and writes) of its path, counted from zero: sequence execution
// (seq.go) replays the interleaving to decide which writes a read can
// observe, which the two separate Reads/Writes slices alone cannot
// express.
type StateAccess struct {
	Store string
	Key   *expr.Expr
	Var   *expr.Expr
	Seq   int
}

// StateUpdate logs one symbolic state write. Seq orders the write
// against the path's other state accesses (see StateAccess.Seq).
type StateUpdate struct {
	Store string
	Key   *expr.Expr
	Val   *expr.Expr
	Seq   int
}

// AccessSpan returns the number of access slots a path's read/write
// logs occupy: one past the largest Seq. For exactly-explored paths
// this equals len(reads)+len(writes); loop-state merging unions sibling
// logs, where only the upper bound survives. Step-2 composition uses it
// to renumber a segment's accesses into the composed path's order.
func AccessSpan(reads []StateAccess, writes []StateUpdate) int {
	n := 0
	for _, rd := range reads {
		if rd.Seq+1 > n {
			n = rd.Seq + 1
		}
	}
	for _, wr := range writes {
		if wr.Seq+1 > n {
			n = wr.Seq + 1
		}
	}
	return n
}

// TableLookup logs one static-table lookup on a symbolic key: the
// table, the key expression and the value the path took. Step 1 forks
// one path per table value without constraining the key (see
// staticLookup), so the record is what ties the value back to the
// concrete table: a caller that reports the path conjoins Key ∈
// KeysOf(Val) (DESIGN.md §3.2). Guard is the condition under which the
// lookup happened on the path, nil when it always did; only loop-state
// merging sets it, to the merged sibling's condition.
type TableLookup struct {
	Table string
	Key   *expr.Expr
	Val   uint64
	Guard *expr.Expr
}

// CrashRecord tags a crashing segment.
type CrashRecord struct {
	Kind ir.CrashKind
	Msg  string
}

// Segment is one feasible complete path through an element: the unit the
// paper's composition works with.
type Segment struct {
	Element string
	Index   int // position in discovery order
	// Cond is the path constraint: a conjunction of 1-bit expressions
	// over the element's symbolic inputs.
	Cond []*expr.Expr
	// Pkt is the output packet array (a store chain over the input).
	Pkt *expr.Array
	// Meta holds the final value of every metadata slot the path wrote;
	// slots not present pass through unchanged.
	Meta map[string]*expr.Expr
	// Disposition, Port, and Crash describe how the path ended.
	Disposition ir.Disposition
	Port        int
	Crash       *CrashRecord
	// Steps is the dynamic statement count along the path (concrete:
	// a path is a fixed instruction sequence).
	Steps int64
	// Reads and Writes log private-state accesses along the path.
	Reads  []StateAccess
	Writes []StateUpdate
	// Lookups logs the path's static-table lookups on symbolic keys.
	Lookups []TableLookup
}

// CondExpr returns the path constraint as a single conjunction.
func (s *Segment) CondExpr() *expr.Expr { return expr.And(s.Cond...) }

// IsSuspect reports whether the segment is tagged suspect for crash
// freedom (it crashes in isolation).
func (s *Segment) IsSuspect() bool { return s.Disposition == ir.Crashed }

// LoopMode selects the loop strategy.
type LoopMode uint8

// Loop strategies.
const (
	// LoopMerge applies the paper's mini-element decomposition and
	// additionally merges the per-iteration continuation states into a
	// single state with disjunctive conditions and ite-selected values —
	// the state-merging technique of the paper's own group (its citation
	// [23], Kuznetsov et al., PLDI'12). This keeps loop exploration
	// linear in the bound instead of exponential, at the cost of making
	// per-segment step counts upper bounds rather than exact values
	// (Stats.Merged reports whether any merge happened).
	LoopMerge LoopMode = iota
	// LoopUnroll inlines loop bodies up to their bound — the naive
	// baseline ("millions of segments" for IP options).
	LoopUnroll
)

// Options configures an Engine.
type Options struct {
	LoopMode LoopMode
	// MaxSegments bounds the number of segments explored (0 = default).
	// Exceeding it aborts with ErrBudget — how the "did not complete in
	// 12 hours" baseline manifests at our scale.
	MaxSegments int
	// MaxSteps bounds the total symbolically executed statements
	// (0 = default).
	MaxSteps int64
}

// Defaults for Options zero values.
const (
	DefaultMaxSegments = 1 << 18
	DefaultMaxSteps    = int64(1) << 26
)

// ErrBudget reports that exploration exceeded the configured budget.
var ErrBudget = errors.New("symbex: exploration budget exceeded")

// Stats counts exploration work.
type Stats struct {
	Segments     int   // feasible segments found
	ForksCut     int   // branches pruned as infeasible
	StepsSymbex  int64 // statements symbolically executed
	SolverChecks int64 // feasibility queries issued
	// Merged reports that loop-state merging occurred, in which case
	// segment step counts are upper bounds rather than exact values.
	Merged bool
}

// Add accumulates o into s. The verifier aggregates per-engine counters
// across its worker pool with this.
func (s *Stats) Add(o Stats) {
	s.Segments += o.Segments
	s.ForksCut += o.ForksCut
	s.StepsSymbex += o.StepsSymbex
	s.SolverChecks += o.SolverChecks
	s.Merged = s.Merged || o.Merged
}

// Input describes the symbolic environment an element starts from. The
// zero value is completed by Run: a fresh packet array, symbolic length,
// and symbolic metadata.
type Input struct {
	Pkt  *expr.Array
	Len  *expr.Expr
	Meta map[string]*expr.Expr
	// Pre holds global constraints (e.g. packet length bounds) assumed
	// during pruning but not recorded in segment conditions.
	Pre []*expr.Expr
}

// DefaultInput returns the unconstrained per-element input of Step 1,
// with packet length bounded to [minLen, maxLen].
func DefaultInput(minLen, maxLen uint64) Input {
	l := expr.Var(PktLenVar, 32)
	return Input{
		Pkt: expr.BaseArray(PktArrayName),
		Len: l,
		Pre: []*expr.Expr{
			expr.Ule(expr.Const(32, minLen), l),
			expr.Ule(l, expr.Const(32, maxLen)),
		},
	}
}

// Engine symbolically executes programs. Engines are stateless between
// Run calls except for statistics: the loop-body summary memo and the
// incremental solver session behind the feasibility checks are opened by
// each Run and released when it returns. Both are keyed to one program
// (the memo by statement identity, the session by that program's
// constraints), so carrying them into the next program would only make
// its queries pay for this one's formula.
type Engine struct {
	Solver *smt.Solver
	Opts   Options

	stats Stats
}

// New returns an engine using the given solver.
func New(solver *smt.Solver, opts Options) *Engine {
	return &Engine{Solver: solver, Opts: opts}
}

// Stats returns accumulated exploration statistics.
func (e *Engine) Stats() Stats { return e.stats }

func (e *Engine) maxSegments() int {
	if e.Opts.MaxSegments > 0 {
		return e.Opts.MaxSegments
	}
	return DefaultMaxSegments
}

func (e *Engine) maxSteps() int64 {
	if e.Opts.MaxSteps > 0 {
		return e.Opts.MaxSteps
	}
	return DefaultMaxSteps
}

// Run symbolically executes p from the given input and returns every
// feasible segment. The error is non-nil only when the exploration
// budget is exceeded.
func (e *Engine) Run(p *ir.Program, in Input) ([]*Segment, error) {
	if in.Pkt == nil {
		in.Pkt = expr.BaseArray(PktArrayName)
	}
	if in.Len == nil {
		in.Len = expr.Var(PktLenVar, 32)
	}
	meta := map[string]*expr.Expr{}
	for k, v := range in.Meta {
		meta[k] = v
	}
	st := &pathState{
		prog: p,
		regs: make([]*expr.Expr, len(p.RegWidths)),
		pkt:  in.Pkt,
		plen: in.Len,
		meta: meta,
	}
	for i, w := range p.RegWidths {
		st.regs[i] = expr.Const(w, 0)
	}
	x := &exec{eng: e, prog: p, pre: in.Pre,
		session: e.Solver.NewSession(), loopMemo: map[*ir.Stmt][]*bodySummary{}}
	x.maxLen, x.lenBounded = lenBound(in.Pre, in.Len)
	defer x.session.Close()
	// Loop merging reads Merged as "this run has merged" (prune), so a
	// run's work does not depend on what the engine ran before.
	merged := e.stats.Merged
	e.stats.Merged = false
	defer func() { e.stats.Merged = e.stats.Merged || merged }()
	if err := x.block(p.Body, st); err != nil {
		return nil, err
	}
	return x.out, nil
}

// pathState is the mutable symbolic state of one explored path. fork()
// copies the parts that diverge.
type pathState struct {
	prog   *ir.Program
	regs   []*expr.Expr
	pkt    *expr.Array
	plen   *expr.Expr
	meta   map[string]*expr.Expr
	conds  []*expr.Expr
	steps  int64
	reads  []StateAccess
	writes []StateUpdate
	nRead  map[string]int // per-store read counter for fresh names
	nAcc   int            // state-access counter (assigns StateAccess/StateUpdate.Seq)
	// lookups logs the static-table lookups on symbolic keys.
	lookups []TableLookup
	// model is a concrete witness satisfying conds (and the global Pre),
	// or nil when none is cached. Forks whose branch condition the
	// witness satisfies are feasible without a solver call — the
	// counterexample-caching trick real symbex engines rely on.
	model *expr.Assignment
	// windows are the byte ranges the path's bounds checks proved in
	// bounds (bounds.go).
	windows []window
}

func (s *pathState) fork() *pathState {
	c := &pathState{
		prog:    s.prog,
		regs:    append([]*expr.Expr{}, s.regs...),
		pkt:     s.pkt,
		plen:    s.plen,
		meta:    make(map[string]*expr.Expr, len(s.meta)),
		conds:   append([]*expr.Expr{}, s.conds...),
		steps:   s.steps,
		reads:   append([]StateAccess{}, s.reads...),
		writes:  append([]StateUpdate{}, s.writes...),
		nRead:   make(map[string]int, len(s.nRead)),
		nAcc:    s.nAcc,
		lookups: append([]TableLookup{}, s.lookups...),
		model:   s.model,
		windows: append([]window(nil), s.windows...),
	}
	for k, v := range s.meta {
		c.meta[k] = v
	}
	for k, v := range s.nRead {
		c.nRead[k] = v
	}
	return c
}

func (s *pathState) assume(c *expr.Expr) {
	s.conds = append(s.conds, c)
	if s.model != nil && !expr.Eval(c, s.model).IsTrue() {
		s.model = nil // witness no longer covers this path
	}
}

// exec drives the exploration of one Run call. session and loopMemo
// live exactly as long as the run (a loop body's sub-exec shares its
// parent's): conflict clauses learnt on one path prune the next, and a
// loop reached on many paths is summarized once.
type exec struct {
	eng  *Engine
	prog *ir.Program
	pre  []*expr.Expr
	out  []*Segment
	// maxLen bounds the packet length when lenBounded, as pre states;
	// a loop body's sub-exec has no pre and no bound.
	maxLen     uint64
	lenBounded bool

	session  *smt.IncrementalSession
	loopMemo map[*ir.Stmt][]*bodySummary
	// ev evaluates conditions under the witness the last cached-witness
	// check read: the forks of one path test their branch conditions
	// against the same model, and their subterms are shared.
	ev *expr.Evaluator
}

// feasibleM reports whether the path extended by extra can still be
// satisfied, returning a concrete witness of (conds ∧ extra) when one is
// known. Unknown counts as feasible with a nil witness (sound
// over-approximation). The cached per-path witness is consulted first:
// when it satisfies extra, no solver query is needed.
func (x *exec) feasibleM(st *pathState, extra *expr.Expr) (bool, *expr.Assignment) {
	if extra.IsFalse() {
		return false, nil
	}
	if st.model != nil {
		if x.ev == nil || x.ev.Assignment() != st.model {
			x.ev = expr.NewEvaluator(st.model)
		}
		if x.ev.Eval(extra).IsTrue() {
			return true, st.model
		}
	}
	cons := make([]*expr.Expr, 0, len(x.pre)+len(st.conds)+1)
	cons = append(cons, x.pre...)
	cons = append(cons, st.conds...)
	if !extra.IsTrue() {
		cons = append(cons, extra)
	}
	x.eng.stats.SolverChecks++
	r, m := x.session.Check(cons)
	if r == smt.Unsat {
		x.eng.stats.ForksCut++
		return false, nil
	}
	if r == smt.Unknown {
		return true, nil
	}
	return true, m
}

// feasible is feasibleM without witness plumbing.
func (x *exec) feasible(st *pathState, extra *expr.Expr) bool {
	ok, _ := x.feasibleM(st, extra)
	return ok
}

// forkWith returns a fork of st constrained by cond, carrying witness m
// (which must satisfy the fork's full constraint set, or be nil).
func forkWith(st *pathState, cond *expr.Expr, m *expr.Assignment) *pathState {
	cs := st.fork()
	cs.conds = append(cs.conds, cond)
	cs.model = m
	return cs
}

func (x *exec) emitSegment(st *pathState, disp ir.Disposition, port int, crash *CrashRecord) error {
	if len(x.out) >= x.eng.maxSegments() {
		return ErrBudget
	}
	seg := &Segment{
		Element:     x.prog.Name,
		Index:       len(x.out),
		Cond:        append([]*expr.Expr{}, st.conds...),
		Pkt:         st.pkt,
		Meta:        st.meta,
		Disposition: disp,
		Port:        port,
		Crash:       crash,
		Steps:       st.steps,
		Reads:       st.reads,
		Writes:      st.writes,
		Lookups:     st.lookups,
	}
	x.out = append(x.out, seg)
	x.eng.stats.Segments++
	return nil
}

// blockOutcome signals how a block finished on a given path.
type blockOutcome uint8

const (
	fellThrough blockOutcome = iota
	brokeLoop
)

// block executes the whole element body on st. Every path must
// terminate (the builder guarantees it); leftover continuations become
// defensive crash segments.
func (x *exec) block(body []Stmt, st *pathState) error {
	conts, err := x.runBlock(body, st)
	if err != nil {
		return err
	}
	for _, c := range conts {
		if err := x.emitSegment(c.st, ir.Crashed, 0, &CrashRecord{Kind: ir.CrashAssert, Msg: "fell off program end"}); err != nil {
			return err
		}
	}
	return nil
}

// Stmt aliases keep signatures readable.
type Stmt = ir.Stmt

type continuation struct {
	st  *pathState
	how blockOutcome
}

// runBlock symbolically executes body over st, returning every
// continuation state: paths that reached the block end (fellThrough) and
// paths that hit a break inside it (brokeLoop, to be resolved by the
// nearest enclosing loop). Terminated paths emit segments as a side
// effect.
func (x *exec) runBlock(body []Stmt, st *pathState) ([]continuation, error) {
	states := []*pathState{st}
	var escaped []continuation
	for _, s := range body {
		var next []*pathState
		for _, cur := range states {
			cur.steps++
			x.eng.stats.StepsSymbex++
			if x.eng.stats.StepsSymbex > x.eng.maxSteps() {
				return nil, ErrBudget
			}
			produced, conts, err := x.step(s, cur)
			if err != nil {
				return nil, err
			}
			next = append(next, produced...)
			escaped = append(escaped, conts...)
		}
		states = next
		if len(states) == 0 {
			break
		}
	}
	out := escaped
	for _, s2 := range states {
		out = append(out, continuation{st: s2, how: fellThrough})
	}
	return out, nil
}

// step executes one statement on one path state, returning the states
// that continue to the next statement in the same block. Paths that
// terminate (emit/drop/crash) emit segments; paths that break out of a
// loop are recorded on the exec's breakStates stack.
func (x *exec) step(s Stmt, st *pathState) ([]*pathState, []continuation, error) {
	switch stmt := s.(type) {
	case ir.ConstStmt:
		st.regs[stmt.Dst] = expr.ConstV(stmt.Val)
	case ir.BinStmt:
		a, b := st.regs[stmt.A], st.regs[stmt.B]
		if stmt.Op == ir.UDiv || stmt.Op == ir.URem {
			zero := expr.Const(b.Width(), 0)
			isZero := expr.Eq(b, zero)
			// Crash branch.
			if ok, m := x.feasibleM(st, isZero); ok {
				cs := forkWith(st, isZero, m)
				if err := x.emitSegment(cs, ir.Crashed, 0, &CrashRecord{Kind: ir.CrashDivZero,
					Msg: fmt.Sprintf("%s by zero in %s", stmt.Op, x.prog.Name)}); err != nil {
					return nil, nil, err
				}
			}
			notZero := expr.Not(isZero)
			ok, m := x.feasibleM(st, notZero)
			if !ok {
				return nil, nil, nil
			}
			st.assume(notZero)
			st.model = m
		}
		st.regs[stmt.Dst] = symBin(stmt.Op, a, b)
	case ir.NotStmt:
		st.regs[stmt.Dst] = expr.Not(st.regs[stmt.A])
	case ir.CastStmt:
		w := x.prog.RegWidth(stmt.Dst)
		switch stmt.Kind {
		case ir.ZExt:
			st.regs[stmt.Dst] = expr.ZExt(st.regs[stmt.A], w)
		case ir.SExt:
			st.regs[stmt.Dst] = expr.SExt(st.regs[stmt.A], w)
		case ir.Trunc:
			st.regs[stmt.Dst] = expr.Trunc(st.regs[stmt.A], w)
		}
	case ir.SelStmt:
		st.regs[stmt.Dst] = expr.Ite(st.regs[stmt.Cond], st.regs[stmt.A], st.regs[stmt.B])
	case ir.LoadPktStmt:
		off := st.regs[stmt.Off]
		ok, err := x.boundsCheck(st, off, stmt.N)
		if err != nil || !ok {
			return nil, nil, err
		}
		st.regs[stmt.Dst] = expr.SelectWide(st.pkt, off, stmt.N)
	case ir.StorePktStmt:
		off := st.regs[stmt.Off]
		ok, err := x.boundsCheck(st, off, stmt.N)
		if err != nil || !ok {
			return nil, nil, err
		}
		st.pkt = expr.StoreWide(st.pkt, off, st.regs[stmt.Src], stmt.N)
	case ir.PktLenStmt:
		st.regs[stmt.Dst] = st.plen
	case ir.MetaLoadStmt:
		w := x.prog.RegWidth(stmt.Dst)
		v, okm := st.meta[stmt.Slot]
		if !okm {
			v = MetaVar(stmt.Slot, w)
		}
		st.regs[stmt.Dst] = v
	case ir.MetaStoreStmt:
		st.meta[stmt.Slot] = st.regs[stmt.Src]
	case ir.StateReadStmt:
		if st.nRead == nil {
			st.nRead = map[string]int{}
		}
		d, _ := x.prog.StateDeclByName(stmt.Store)
		n := st.nRead[stmt.Store]
		st.nRead[stmt.Store] = n + 1
		// Fresh unconstrained result, per the paper's data-structure
		// model: a read may return any previously written value or the
		// default. The verifier's bad-value analysis refines this.
		v := expr.Var(fmt.Sprintf("%s%s.%d", StateReadPrefix, stmt.Store, n), d.ValW)
		st.reads = append(st.reads, StateAccess{Store: stmt.Store, Key: st.regs[stmt.Key], Var: v, Seq: st.nAcc})
		st.nAcc++
		st.regs[stmt.Dst] = v
	case ir.StateWriteStmt:
		st.writes = append(st.writes, StateUpdate{Store: stmt.Store, Key: st.regs[stmt.Key], Val: st.regs[stmt.Val], Seq: st.nAcc})
		st.nAcc++
	case ir.StaticLookupStmt:
		return x.staticLookup(stmt, st)
	case ir.AssertStmt:
		c := st.regs[stmt.Cond]
		notC := expr.Not(c)
		if ok, m := x.feasibleM(st, notC); ok {
			cs := forkWith(st, notC, m)
			if err := x.emitSegment(cs, ir.Crashed, 0, &CrashRecord{Kind: ir.CrashAssert,
				Msg: fmt.Sprintf("%s in %s", stmt.Msg, x.prog.Name)}); err != nil {
				return nil, nil, err
			}
		}
		ok, m := x.feasibleM(st, c)
		if !ok {
			return nil, nil, nil
		}
		st.assume(c)
		st.model = m
	case ir.IfStmt:
		return x.ifStmt(stmt, st)
	case ir.LoopStmt:
		if x.eng.Opts.LoopMode == LoopUnroll {
			return x.loopUnroll(stmt, st)
		}
		return x.loopSummarize(stmt, st)
	case ir.BreakStmt:
		return nil, []continuation{{st: st, how: brokeLoop}}, nil
	case ir.EmitStmt:
		return nil, nil, x.emitSegment(st, ir.Emitted, stmt.Port, nil)
	case ir.DropStmt:
		return nil, nil, x.emitSegment(st, ir.Dropped, 0, nil)
	default:
		panic(fmt.Sprintf("symbex: unknown statement %T", s))
	}
	return []*pathState{st}, nil, nil
}

// symBinOps maps IR binary operators onto expression operators.
var symBinOps = [...]expr.Op{
	ir.Add: expr.OpAdd, ir.Sub: expr.OpSub, ir.Mul: expr.OpMul,
	ir.UDiv: expr.OpUDiv, ir.URem: expr.OpURem, ir.And: expr.OpAnd,
	ir.Or: expr.OpOr, ir.Xor: expr.OpXor, ir.Shl: expr.OpShl,
	ir.LShr: expr.OpLShr, ir.AShr: expr.OpAShr, ir.Eq: expr.OpEq,
	ir.Ne: expr.OpNe, ir.Ult: expr.OpUlt, ir.Ule: expr.OpUle,
	ir.Slt: expr.OpSlt, ir.Sle: expr.OpSle,
}

func symBin(op ir.BinOp, a, b *expr.Expr) *expr.Expr {
	return expr.Bin(symBinOps[op], a, b)
}

// boundsCheck constrains st to an in-bounds access of n bytes at off.
// When the path already proves the access in bounds (bounds.go), it
// asks the solver nothing, emits no crash path and assumes nothing: the
// condition is implied. Otherwise it forks the out-of-bounds crash path,
// constrains st to the in-bounds case and records the access as a
// window; it returns false when the in-bounds case is infeasible.
func (x *exec) boundsCheck(st *pathState, off *expr.Expr, n int) (bool, error) {
	base, k := splitOffset(off)
	if st.provesInBounds(base, k, uint64(n), x.maxLen, x.lenBounded) {
		return true, nil
	}
	end := expr.Add(expr.ZExt(off, 32), expr.Const(32, uint64(n)))
	// Overflow-safe: off + n can wrap only when off > 2^32 - n, which is
	// itself out of bounds for any real packet length; include the
	// wrap condition in the OOB branch.
	inBounds := expr.And(expr.Ule(end, st.plen), expr.Ule(off, end))
	oob := expr.Not(inBounds)
	if ok, m := x.feasibleM(st, oob); ok {
		cs := forkWith(st, oob, m)
		if err := x.emitSegment(cs, ir.Crashed, 0, &CrashRecord{Kind: ir.CrashOOB,
			Msg: fmt.Sprintf("packet access beyond length in %s", x.prog.Name)}); err != nil {
			return false, err
		}
	}
	ok, m := x.feasibleM(st, inBounds)
	if !ok {
		return false, nil
	}
	st.assume(inBounds)
	st.model = m
	st.addWindow(base, k, k+uint64(n))
	return true, nil
}

// staticLookup reads a static table. A constant key looks up exactly.
// A symbolic key forks one path per value the table can return
// (ir.StaticTable.Values, in first-appearance order), with no constraint
// on the key: the paper's key/value interface, which keeps the table's
// ranges out of the summary. This over-approximates the table, so a
// universal property proved over the forks holds for it; each fork logs
// the lookup, and a caller about to report a path conjoins the concrete
// key ranges of its value (DESIGN.md §3.2).
func (x *exec) staticLookup(stmt ir.StaticLookupStmt, st *pathState) ([]*pathState, []continuation, error) {
	t, _ := x.prog.TableByName(stmt.Table)
	key := st.regs[stmt.Key]
	if kv, ok := key.IsConst(); ok {
		v, _ := t.Lookup(kv.U)
		st.regs[stmt.Dst] = expr.Const(t.ValW, v)
		return []*pathState{st}, nil, nil
	}
	vals := t.Values()
	out := make([]*pathState, len(vals))
	for i, v := range vals {
		cs := st
		if i < len(vals)-1 {
			cs = st.fork()
		}
		cs.regs[stmt.Dst] = expr.Const(t.ValW, v)
		cs.lookups = append(cs.lookups, TableLookup{Table: t.Name, Key: key, Val: v})
		out[i] = cs
	}
	return out, nil, nil
}

// ifStmt forks on the condition and joins the surviving continuations.
func (x *exec) ifStmt(stmt ir.IfStmt, st *pathState) ([]*pathState, []continuation, error) {
	c := st.regs[stmt.Cond]
	var through []*pathState
	var conts []continuation
	explore := func(cond *expr.Expr, body []Stmt) error {
		ok, m := x.feasibleM(st, cond)
		if !ok {
			return nil
		}
		cs := st.fork()
		if !cond.IsTrue() {
			cs.assume(cond)
			cs.model = m
		}
		got, err := x.runBlock(body, cs)
		if err != nil {
			return err
		}
		for _, g := range got {
			if g.how == fellThrough {
				through = append(through, g.st)
			} else {
				conts = append(conts, g)
			}
		}
		return nil
	}
	if err := explore(c, stmt.Then); err != nil {
		return nil, nil, err
	}
	if err := explore(expr.Not(c), stmt.Else); err != nil {
		return nil, nil, err
	}
	return through, conts, nil
}

// loopUnroll inlines up to Bound iterations, the naive baseline.
func (x *exec) loopUnroll(stmt ir.LoopStmt, st *pathState) ([]*pathState, []continuation, error) {
	through := []*pathState{}
	active := []*pathState{st}
	for iter := 0; iter < stmt.Bound && len(active) > 0; iter++ {
		if iter > 0 {
			for _, a := range active {
				a.steps++ // back-edge cost, matching the interpreter
			}
		}
		var nextActive []*pathState
		for _, a := range active {
			got, err := x.runBlock(stmt.Body, a)
			if err != nil {
				return nil, nil, err
			}
			for _, g := range got {
				if g.how == brokeLoop {
					through = append(through, g.st)
				} else {
					nextActive = append(nextActive, g.st)
				}
			}
		}
		active = nextActive
	}
	// Paths that completed all iterations fall through too.
	through = append(through, active...)
	return through, nil, nil
}
