package verify

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"vsd/internal/smt"
	"vsd/internal/telemetry"
)

// vtel is the verifier's telemetry state. It always exists (New builds
// one) so the hot paths never nil-check the container itself; instead
// every component inside is individually nil-safe. With no tracer, no
// registry and no profiler configured, the per-solve overhead is the
// histogram record (a few atomic adds) and nothing else.
type vtel struct {
	tracer *telemetry.Tracer
	main   *telemetry.Lane // property entry points and Step-2 phases
	prof   *obligationProfiler

	// solveHist and summarizeHist are always allocated: solve-time
	// percentiles are part of Stats (the BENCH tail-regression fix),
	// not an opt-in. When a Registry is configured they are the
	// registry's own instances, so /metrics and Stats agree by
	// construction.
	solveHist     *telemetry.Histogram
	summarizeHist *telemetry.Histogram
	storeLoads    *telemetry.Counter
	storeSaves    *telemetry.Counter
	replays       *telemetry.Counter
	builds        *telemetry.Counter
	refinements   *telemetry.Counter

	// Worker lanes are pooled: a goroutine holds a lane for the
	// duration of one sequential stretch of work, which preserves the
	// strict span nesting the trace format wants per lane.
	laneMu    sync.Mutex
	freeLanes []*telemetry.Lane
	laneCount int

	// sessLane associates each checked-out solver session with the
	// lane of the goroutine driving it, so the central solve point
	// (feasible, recordSolve) can attach obligation spans to the right
	// lane without threading a lane through every signature.
	sessLane sync.Map // *smt.IncrementalSession -> *telemetry.Lane
}

func newVtel(opts Options) *vtel {
	t := &vtel{tracer: opts.Trace}
	t.main = t.tracer.Lane("verify-main")
	if opts.Metrics != nil {
		t.solveHist = opts.Metrics.Histogram("vsd_solve_duration_seconds",
			"wall time of individual Step-2 solver queries", 1e9)
		t.summarizeHist = opts.Metrics.Histogram("vsd_summarize_duration_seconds",
			"wall time of Step-1 element summarizations", 1e9)
		t.storeLoads = opts.Metrics.Counter("vsd_store_loads_total",
			"summary-store loads that hit")
		t.storeSaves = opts.Metrics.Counter("vsd_store_saves_total",
			"summary-store saves after fresh summarization")
		t.replays = opts.Metrics.Counter("vsd_stitches_replayed_total",
			"Step-2 stitch obligations and induction sequence extensions decided from a certificate instead of the solver")
		t.builds = opts.Metrics.Counter("vsd_stitches_built_total",
			"Step-2 composed states whose formulas were substituted")
		t.refinements = opts.Metrics.Counter("vsd_table_refinements_total",
			"path ends (violations, sequence witnesses, bound candidates) the concrete static tables ruled out")
	} else {
		t.solveHist = telemetry.NewHistogram()
		t.summarizeHist = telemetry.NewHistogram()
	}
	if opts.Profile {
		t.prof = &obligationProfiler{byName: map[string]*ObligationStat{}}
	}
	return t
}

// active reports whether per-obligation labels are worth building:
// they feed the tracer and the profiler, and cost a string allocation
// per stitch, so the walk skips them when neither consumer exists.
func (t *vtel) active() bool { return t.tracer != nil || t.prof != nil }

// getLane checks a worker lane out of the pool (nil when not tracing).
func (t *vtel) getLane() *telemetry.Lane {
	if t.tracer == nil {
		return nil
	}
	t.laneMu.Lock()
	defer t.laneMu.Unlock()
	if n := len(t.freeLanes); n > 0 {
		l := t.freeLanes[n-1]
		t.freeLanes = t.freeLanes[:n-1]
		return l
	}
	t.laneCount++
	return t.tracer.Lane(fmt.Sprintf("worker-%d", t.laneCount-1))
}

func (t *vtel) putLane(l *telemetry.Lane) {
	if l == nil {
		return
	}
	t.laneMu.Lock()
	t.freeLanes = append(t.freeLanes, l)
	t.laneMu.Unlock()
}

// bindSession routes obligation spans solved on sess to lane.
func (t *vtel) bindSession(sess *smt.IncrementalSession, lane *telemetry.Lane) {
	if t.tracer == nil || sess == nil {
		return
	}
	if lane == nil {
		t.sessLane.Delete(sess)
		return
	}
	t.sessLane.Store(sess, lane)
}

func (t *vtel) laneFor(sess *smt.IncrementalSession) *telemetry.Lane {
	if t.tracer == nil {
		return nil
	}
	if l, ok := t.sessLane.Load(sess); ok {
		return l.(*telemetry.Lane)
	}
	return nil
}

// recordSolve is the single attribution point for one solver query:
// it folds the query's SolveInfo into the always-on latency histogram,
// the obligation profiler, and (when the session's goroutine has a
// lane) a trace span tagged with verdict and search effort.
func (t *vtel) recordSolve(info smt.SolveInfo, kind, name string, started bool, sp telemetry.Span) {
	t.solveHist.Record(int64(info.Duration))
	if t.prof != nil && name != "" {
		t.prof.record(kind, name, info)
	}
	if started {
		sp.SetStr("verdict", info.Result.String())
		if info.OrderDecided {
			sp.SetStr("decided_by", "order")
		}
		if info.SATCore {
			sp.SetInt("conflicts", info.Conflicts)
			sp.SetInt("decisions", info.Decisions)
			sp.SetInt("cnf_vars", info.CNFVars)
			sp.SetInt("cnf_clauses", info.CNFClauses)
		}
		sp.End()
	}
}

// beginSolve opens the obligation span for a query about to run on
// sess. started=false (zero span) when tracing is off for this
// session; the span name is built only then, so the disabled path
// stays allocation-free.
func (t *vtel) beginSolve(sess *smt.IncrementalSession, kind, name string) (telemetry.Span, bool) {
	lane := t.laneFor(sess)
	if lane == nil {
		return telemetry.Span{}, false
	}
	if name == "" {
		name = kind
	}
	return lane.Begin(kind, "solve:"+name), true
}

// ObligationStat aggregates the solver cost attributed to one named
// obligation (one stitched-path feasibility query site, one witness
// extraction, one induction step...).
type ObligationStat struct {
	Kind       string
	Name       string
	Queries    int64
	SATCore    int64 // queries that actually engaged the SAT core
	CoreUnsat  int64 // of those, the ones the SAT core refuted
	Order      int64 // queries the order pass refuted before the SAT core
	WallNS     int64
	Conflicts  int64
	Decisions  int64
	CNFVars    int64
	CNFClauses int64
	Unsat      int64
	Sat        int64
	Unknown    int64
}

// obligationProfiler aggregates per-obligation SolveInfo. A plain
// mutex is fine here: profiling is opt-in (-profile) and the map
// update is tiny next to the solves it measures.
type obligationProfiler struct {
	mu     sync.Mutex
	byName map[string]*ObligationStat
}

func (p *obligationProfiler) record(kind, name string, info smt.SolveInfo) {
	p.mu.Lock()
	st, ok := p.byName[name]
	if !ok {
		st = &ObligationStat{Kind: kind, Name: name}
		p.byName[name] = st
	}
	st.Queries++
	st.WallNS += int64(info.Duration)
	if info.OrderDecided {
		st.Order++
	}
	if info.SATCore {
		st.SATCore++
		if info.Result == smt.Unsat {
			st.CoreUnsat++
		}
		st.Conflicts += info.Conflicts
		st.Decisions += info.Decisions
		st.CNFVars += info.CNFVars
		st.CNFClauses += info.CNFClauses
	}
	switch info.Result {
	case smt.Unsat:
		st.Unsat++
	case smt.Sat:
		st.Sat++
	default:
		st.Unknown++
	}
	p.mu.Unlock()
}

// ObligationProfile returns the accumulated per-obligation stats,
// unordered. Empty (nil) unless Options.Profile was set.
func (v *Verifier) ObligationProfile() []ObligationStat {
	if v.tel.prof == nil {
		return nil
	}
	v.tel.prof.mu.Lock()
	defer v.tel.prof.mu.Unlock()
	out := make([]ObligationStat, 0, len(v.tel.prof.byName))
	for _, st := range v.tel.prof.byName {
		out = append(out, *st)
	}
	return out
}

// FormatObligationProfile renders the top-k obligations three ways —
// by wall time, by conflicts, and by CNF size — as the printable
// table behind `vsdverify -profile`. Per obligation, SATCORE counts the
// queries the SAT core solved and CORE-UNSAT the ones among them it
// refuted; ORDER counts the ones the order pass refuted without it.
func FormatObligationProfile(stats []ObligationStat, k int) string {
	if len(stats) == 0 {
		return "obligation profile: no solver queries recorded\n"
	}
	if k <= 0 {
		k = 10
	}
	var b strings.Builder
	section := func(title string, key func(ObligationStat) int64) {
		s := make([]ObligationStat, len(stats))
		copy(s, stats)
		sort.Slice(s, func(i, j int) bool {
			if a, b := key(s[i]), key(s[j]); a != b {
				return a > b
			}
			return s[i].Name < s[j].Name
		})
		n := k
		if n > len(s) {
			n = len(s)
		}
		fmt.Fprintf(&b, "top %d obligations by %s\n", n, title)
		fmt.Fprintf(&b, "  %-10s %8s %8s %10s %6s %10s %10s %9s  %s\n",
			"KIND", "QUERIES", "SATCORE", "CORE-UNSAT", "ORDER", "WALL", "CONFLICTS", "CNFVARS", "OBLIGATION")
		// The name goes last and whole: stitch names share long
		// prefixes, so a cut one cannot tell them apart.
		for _, st := range s[:n] {
			fmt.Fprintf(&b, "  %-10s %8d %8d %10d %6d %10s %10d %9d  %s\n",
				st.Kind, st.Queries, st.SATCore, st.CoreUnsat, st.Order,
				time.Duration(st.WallNS).Round(time.Microsecond),
				st.Conflicts, st.CNFVars, st.Name)
		}
		b.WriteByte('\n')
	}
	section("wall time", func(s ObligationStat) int64 { return s.WallNS })
	section("conflicts", func(s ObligationStat) int64 { return s.Conflicts })
	section("CNF size (vars added)", func(s ObligationStat) int64 { return s.CNFVars })
	return b.String()
}
