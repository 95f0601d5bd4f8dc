// Command vsdverify is the dataplane verification tool the paper
// proposes: it reads a Click configuration and proves (or refutes, with
// witness packets) crash freedom, bounded execution, and functional
// properties.
//
// Usage:
//
//	vsdverify [flags] config.click
//	vsdverify -batch dir [flags]
//
//	-property crash|bound|all   property to verify (default all)
//	-spec LIST                  functional specs to verify (see below)
//	-seq K                      sequence mode (DESIGN.md §8): explore packet
//	                            sequences of up to K packets from boot state
//	                            and report reachable crashes
//	-invariant                  with -seq: prove crash freedom for UNBOUNDED
//	                            packet sequences by k-induction (max depth K)
//	                            instead of bounded unrolling
//	-seqspec LIST               sequence contracts to verify (see below)
//	-ipoff N                    IPv4 header offset assumed by -spec (default 14)
//	-maxlen N                   maximum packet length considered
//	-parallel N                 verification worker pool size (0 = GOMAXPROCS)
//	-store DIR                  persistent summary store directory (DESIGN.md §7)
//	-batch DIR                  batch admission: verify every .click file in DIR,
//	                            printing one verdict JSON line per file to stdout
//	-batch-stats FILE           write batch run statistics (engine runs, store
//	                            hits, Step-1 checks, Step-2 queries, ...) as
//	                            JSON to FILE
//	-monolithic                 also run the whole-pipeline baseline
//	-dump-ir                    print each element's IR before verifying
//	-stats                      print verification statistics
//	-trace FILE                 write a Chrome trace-event JSON of the run
//	                            (phases, per-path walks, per-obligation SAT
//	                            solves); open it in https://ui.perfetto.dev
//	-profile                    print the costliest proof obligations by wall
//	                            time, SAT conflicts, and CNF size
//	-profile-top N              rows per -profile section (default 10)
//	-validate-trace FILE        validate a -trace file and exit (the CI smoke
//	                            gate: well-formed JSON, monotone timestamps,
//	                            balanced spans)
//
// Batch mode is the admission-service form of the tool: all submissions
// share one verifier (summary cache, solver sessions, and, with -store,
// the on-disk summary store), identical pipelines are deduplicated by
// content fingerprint, and the verdict lines are deterministic — two
// runs over the same corpus produce byte-identical output, which is how
// the warm-store CI job asserts store correctness. Timing and counters
// go to stderr / -batch-stats, never into the verdict stream.
//
// -spec takes a comma-separated list of kind@element entries from the
// functional-spec library (internal/specs, DESIGN.md §6):
//
//	ttl@ELEM        TTL decremented by one on packets emitted at ELEM
//	checksum@ELEM   RFC 1624 checksum patch holds on packets emitted at ELEM
//	filter@ELEM     drop-iff-filter-match for the IPFilter instance ELEM
//	nat@ELEM        source-rewrite consistency for the IPRewriter instance ELEM
//	roundtrip@ELEM  header offset restored at egress ELEM, and every byte
//	                past the fixed IPv4 header untouched
//
// e.g. vsdverify -spec ttl@encap,filter@flt router.click
//
// -seqspec takes the same kind@element syntax from the sequence-contract
// half of the library (multi-packet relations, DESIGN.md §8):
//
//	counter@ELEM    the Counter instance ELEM never decreases across the
//	                explored sequences (-seq packets; default 3)
//	nat@ELEM        mapping stability: same-flow packets i and j leave the
//	                NAT instance ELEM with the SAME rewritten source
//	seqrate@ELEM    burst bound of the TokenBucket instance ELEM: at most
//	                CAPACITY packets of any sequence pass its port 0
//
// Refuted sequence properties print a multi-packet witness — the packets
// in arrival order plus, for counterexamples to induction, the seeded
// state — and every witness from boot state is replayed on the concrete
// dataplane before it is reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/packet"
	"vsd/internal/specs"
	"vsd/internal/telemetry"
	"vsd/internal/verify"
)

// buildSpecs parses the -spec list against the pipeline: kinds that
// state an element's contract (filter, nat) read that instance's
// configuration, so the spec always matches what was actually deployed.
func buildSpecs(p *click.Pipeline, list string, ipOff, maxLen uint64) ([]verify.FuncSpec, error) {
	find := func(name string) (*click.Instance, error) {
		for _, e := range p.Elements {
			if e.Name() == name {
				return e, nil
			}
		}
		return nil, fmt.Errorf("pipeline has no element named %q", name)
	}
	var out []verify.FuncSpec
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, elem, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("bad -spec entry %q (want kind@element)", entry)
		}
		inst, err := find(elem)
		if err != nil {
			return nil, fmt.Errorf("-spec %s: %w", entry, err)
		}
		switch kind {
		case "ttl":
			out = append(out, specs.TTLDecrement(ipOff, elem))
		case "checksum":
			out = append(out, specs.ChecksumPatched(ipOff, elem))
		case "filter":
			if inst.Class() != "IPFilter" {
				return nil, fmt.Errorf("-spec %s: %s is a %s, want IPFilter", entry, elem, inst.Class())
			}
			s, err := specs.DropIffFilter(inst.Config(), ipOff, elem)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		case "nat":
			if inst.Class() != "IPRewriter" {
				return nil, fmt.Errorf("-spec %s: %s is a %s, want IPRewriter", entry, elem, inst.Class())
			}
			s, err := specs.NATRewrite(inst.Config(), ipOff, elem)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		case "roundtrip":
			// The unchanged window starts past the fixed IPv4 header: the
			// pipeline may legitimately rewrite header fields (TTL,
			// checksum, NAT addresses), and the spec's claim is that the
			// encapsulation round-trip leaves the rest of the packet alone.
			out = append(out, specs.StripRoundTrip(ipOff+packet.IPv4MinHeaderLen, maxLen, elem))
		default:
			return nil, fmt.Errorf("unknown spec kind %q (want ttl, checksum, filter, nat, or roundtrip)", kind)
		}
	}
	return out, nil
}

// buildSeqSpecs parses the -seqspec list against the pipeline: the
// sequence-contract half of the library (DESIGN.md §8). steps is the
// -seq flag (how many packets each contract explores; 0 picks a
// per-kind default).
func buildSeqSpecs(p *click.Pipeline, list string, ipOff uint64, steps int) ([]verify.SeqSpec, error) {
	find := func(name string) (*click.Instance, error) {
		for _, e := range p.Elements {
			if e.Name() == name {
				return e, nil
			}
		}
		return nil, fmt.Errorf("pipeline has no element named %q", name)
	}
	if steps <= 0 {
		steps = 3 // the shortest length that can refute eviction bugs (A, B, A)
	}
	var out []verify.SeqSpec
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kind, elem, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("bad -seqspec entry %q (want kind@element)", entry)
		}
		inst, err := find(elem)
		if err != nil {
			return nil, fmt.Errorf("-seqspec %s: %w", entry, err)
		}
		switch kind {
		case "counter":
			if inst.Class() != "Counter" {
				return nil, fmt.Errorf("-seqspec %s: %s is a %s, want Counter", entry, elem, inst.Class())
			}
			out = append(out, specs.CounterMonotone(elem, steps))
		case "nat":
			// Mapping stability is vacuously true of any element that never
			// rewrites the source bytes, so a wrong instance must be an
			// error, not a hollow VERIFIED.
			if c := inst.Class(); c != "IPRewriter" && c != "LeakyNAT" {
				return nil, fmt.Errorf("-seqspec %s: %s is a %s, want IPRewriter or LeakyNAT", entry, elem, c)
			}
			out = append(out, specs.NATMappingStable(ipOff, elem, steps))
		case "seqrate":
			if inst.Class() != "TokenBucket" {
				return nil, fmt.Errorf("-seqspec %s: %s is a %s, want TokenBucket", entry, elem, inst.Class())
			}
			capacity := uint64(elements.TokenBucketDefaultCapacity)
			if cfg := strings.TrimSpace(inst.Config()); cfg != "" {
				capacity, err = strconv.ParseUint(cfg, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("-seqspec %s: bad TokenBucket capacity %q", entry, cfg)
				}
			}
			out = append(out, specs.RateLimiterBound(capacity, elem))
		default:
			return nil, fmt.Errorf("unknown sequence spec kind %q (want counter, nat, or seqrate)", kind)
		}
	}
	return out, nil
}

func main() {
	property := flag.String("property", "all", "property to verify: crash, bound, or all")
	specList := flag.String("spec", "", "comma-separated functional specs to verify (kind@element; see package doc)")
	seqK := flag.Int("seq", 0, "sequence mode: explore packet sequences of up to K packets (0 = off; DESIGN.md §8)")
	invariant := flag.Bool("invariant", false, "with -seq: prove unbounded crash freedom by k-induction instead of bounded unrolling")
	seqSpecList := flag.String("seqspec", "", "comma-separated sequence contracts to verify (kind@element; see package doc)")
	ipOff := flag.Uint64("ipoff", packet.EthernetHeaderLen, "IPv4 header offset assumed by -spec entries")
	maxLen := flag.Uint64("maxlen", 256, "maximum packet length considered")
	parallel := flag.Int("parallel", 0, "verification worker pool size (0 = GOMAXPROCS)")
	storeDir := flag.String("store", "", "persistent summary store directory (empty = in-memory only)")
	batchDir := flag.String("batch", "", "batch admission: verify every .click file in this directory")
	batchStats := flag.String("batch-stats", "", "write batch statistics JSON to this file")
	monolithic := flag.Bool("monolithic", false, "also run the whole-pipeline baseline")
	dumpIR := flag.Bool("dump-ir", false, "print each element's IR")
	stats := flag.Bool("stats", false, "print verification statistics")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto)")
	profile := flag.Bool("profile", false, "print the costliest proof obligations (wall time, conflicts, CNF size)")
	profileK := flag.Int("profile-top", 10, "rows per section in the -profile tables")
	validateTrace := flag.String("validate-trace", "", "validate a -trace JSON file (well-formed, ordered, balanced spans) and exit")
	flag.Parse()

	if *validateTrace != "" {
		data, err := os.ReadFile(*validateTrace)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.ValidateTrace(data); err != nil {
			fatal(fmt.Errorf("%s: %w", *validateTrace, err))
		}
		fmt.Printf("trace %s: OK\n", *validateTrace)
		return
	}

	opts := verify.Options{MinLen: packet.MinFrame, MaxLen: *maxLen, Parallelism: *parallel, Profile: *profile}
	if err := opts.Validate(); err != nil {
		fatal(fmt.Errorf("-maxlen %d: %w", *maxLen, err))
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.New(telemetry.Opts{})
		opts.Trace = tracer
	}
	if *storeDir != "" {
		store, err := verify.NewDiskStore(*storeDir)
		if err != nil {
			fatal(err)
		}
		opts.Store = store
	}

	if *batchDir != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: vsdverify -batch dir [flags] (no positional config)")
			os.Exit(2)
		}
		runBatch(*batchDir, *batchStats, opts)
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vsdverify [flags] config.click")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	pipeline, err := click.Parse(elements.Default(), string(src))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pipeline (%d elements):\n%s\n", len(pipeline.Elements), pipeline)
	if *dumpIR {
		for _, e := range pipeline.Elements {
			fmt.Println(e.Program())
		}
	}

	v := verify.New(opts)
	failed := false

	if *property == "crash" || *property == "all" {
		start := time.Now()
		rep, err := v.CrashFreedom(pipeline)
		if err != nil {
			fatal(err)
		}
		if rep.Verified {
			fmt.Printf("crash freedom: VERIFIED in %v (no packet of length %d..%d can crash this pipeline)\n",
				time.Since(start).Round(time.Millisecond), packet.MinFrame, *maxLen)
			if rep.Discharged > 0 {
				fmt.Printf("  %d stateful suspect path(s) discharged by the bad-value analysis\n", rep.Discharged)
			}
		} else {
			failed = true
			fmt.Printf("crash freedom: FAILED in %v — %d witness(es):\n",
				time.Since(start).Round(time.Millisecond), len(rep.Witnesses))
			for _, w := range rep.Witnesses {
				fmt.Print(verify.FormatWitness(w))
			}
		}
	}

	if *property == "bound" || *property == "all" {
		start := time.Now()
		rep, err := v.BoundedInstructions(pipeline)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("bounded execution: max %d IR statements per packet (computed in %v)\n",
			rep.MaxSteps, time.Since(start).Round(time.Millisecond))
		if rep.CrashPossible {
			fmt.Println("  note: some inputs crash the pipeline; the bound covers non-crashing executions")
		}
		if rep.Witness.Packet != nil {
			fmt.Println("  worst-case packet:")
			fmt.Print(verify.FormatWitness(rep.Witness))
		}
	}

	if *specList != "" {
		fspecs, err := buildSpecs(pipeline, *specList, *ipOff, *maxLen)
		if err != nil {
			fatal(err)
		}
		for _, spec := range fspecs {
			start := time.Now()
			rep, err := v.VerifyFunc(pipeline, spec)
			if err != nil {
				fatal(err)
			}
			if rep.Verified {
				fmt.Printf("spec %s: VERIFIED in %v (%d obligation(s) proved, %d trivially)\n",
					rep.Spec, time.Since(start).Round(time.Millisecond), rep.Proved, rep.Trivial)
			} else {
				failed = true
				fmt.Printf("spec %s: FAILED in %v — %d witness(es):\n",
					rep.Spec, time.Since(start).Round(time.Millisecond), len(rep.Witnesses))
				for _, w := range rep.Witnesses {
					fmt.Print(verify.FormatWitness(w))
				}
			}
		}
	}

	if *invariant && *seqK == 0 {
		fatal(fmt.Errorf("-invariant requires -seq K"))
	}
	if *seqK > 0 {
		if *invariant {
			start := time.Now()
			rep, err := v.SeqCrashFreedom(pipeline, verify.SeqOptions{MaxK: *seqK})
			if err != nil {
				fatal(err)
			}
			switch {
			case rep.Proved:
				fmt.Printf("sequence crash freedom: PROVED for UNBOUNDED packet sequences by %d-induction in %v (%d sequence prefixes explored)\n",
					rep.K, time.Since(start).Round(time.Millisecond), rep.Sequences)
			case rep.Refuted:
				failed = true
				fmt.Printf("sequence crash freedom: REFUTED in %v — a %d-packet sequence from boot state crashes the pipeline:\n",
					time.Since(start).Round(time.Millisecond), len(rep.Witness.Packets))
				replayAndPrint(pipeline, rep.Witness)
			case rep.CTI:
				failed = true
				fmt.Printf("sequence crash freedom: NOT PROVED within k=%d in %v — counterexample to induction (no unbounded guarantee; the violation needs a seeded state):\n",
					rep.K, time.Since(start).Round(time.Millisecond))
				replayAndPrint(pipeline, rep.Witness)
			}
		} else {
			start := time.Now()
			rep, err := v.SeqCrashBounded(pipeline, *seqK, verify.SeqOptions{})
			if err != nil {
				fatal(err)
			}
			if rep.Refuted {
				failed = true
				fmt.Printf("bounded sequences (depth %d): CRASH REACHABLE in %v — %d sequences explored:\n",
					*seqK, time.Since(start).Round(time.Millisecond), rep.Sequences)
				replayAndPrint(pipeline, rep.Witness)
			} else {
				fmt.Printf("bounded sequences (depth %d): no crash reachable from boot state in %v (%d sequences explored; unbounded lengths need -invariant)\n",
					*seqK, time.Since(start).Round(time.Millisecond), rep.Sequences)
			}
		}
	}

	if *seqSpecList != "" {
		sspecs, err := buildSeqSpecs(pipeline, *seqSpecList, *ipOff, *seqK)
		if err != nil {
			fatal(err)
		}
		for _, spec := range sspecs {
			start := time.Now()
			rep, err := v.VerifySeq(pipeline, spec)
			if err != nil {
				fatal(err)
			}
			if rep.Verified {
				fmt.Printf("seqspec %s: VERIFIED over all %d-packet sequences in %v (%d sequences, %d obligation(s) proved, %d trivially)\n",
					rep.Spec, rep.Steps, time.Since(start).Round(time.Millisecond), rep.Sequences, rep.Proved, rep.Trivial)
			} else {
				failed = true
				fmt.Printf("seqspec %s: FAILED in %v — %d witness(es):\n",
					rep.Spec, time.Since(start).Round(time.Millisecond), len(rep.Witnesses))
				for _, w := range rep.Witnesses {
					replayAndPrint(pipeline, w)
				}
			}
		}
	}

	if *monolithic {
		start := time.Now()
		rep, err := verify.Monolithic(pipeline, verify.Options{MinLen: packet.MinFrame, MaxLen: *maxLen}, 0)
		if err != nil {
			fatal(err)
		}
		if rep.Completed {
			fmt.Printf("monolithic baseline: %d paths, %d crashing, max %d statements, in %v\n",
				rep.Paths, rep.Crashes, rep.MaxSteps, time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Printf("monolithic baseline: DID NOT COMPLETE (%s) after %v\n",
				rep.BudgetReached, time.Since(start).Round(time.Millisecond))
		}
	}

	if *stats {
		fmt.Printf("stats: %+v\n", v.Stats())
	}
	if *profile {
		fmt.Printf("\nobligation profile:\n%s", verify.FormatObligationProfile(v.ObligationProfile(), *profileK))
	}
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
	if failed {
		os.Exit(1)
	}
}

// replayAndPrint prints a multi-packet witness after replaying it on a
// fresh concrete dataplane — the oracle check that the symbolic
// sequence is real. A divergence is an internal error worth dying
// loudly over, never a property verdict.
func replayAndPrint(p *click.Pipeline, w *verify.MultiWitness) {
	if err := verify.ReplaySeq(p, w); err != nil {
		fatal(err)
	}
	fmt.Print(verify.FormatMultiWitness(w))
	fmt.Println("  replay: the sequence reproduces byte-for-byte on the concrete dataplane (both the interpreter and the compiled VM tier)")
}

// runBatch is the admission-service mode: every .click file in dir is a
// submission, verdicts stream to stdout as JSON lines (deterministic:
// no timing, schedule-independent ordering), and run statistics go to
// stderr and optionally a JSON file.
func runBatch(dir, statsFile string, opts verify.Options) {
	names, err := filepath.Glob(filepath.Join(dir, "*.click"))
	if err != nil {
		fatal(err)
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("batch: no .click files in %s", dir))
	}
	sort.Strings(names)
	var items []verify.BatchItem
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			fatal(err)
		}
		p, err := click.Parse(elements.Default(), string(src))
		if err != nil {
			fatal(fmt.Errorf("batch: %s: %w", name, err))
		}
		items = append(items, verify.BatchItem{Name: filepath.Base(name), Pipeline: p})
	}
	verdicts, st, dur := verify.Batch(items, opts)
	out := json.NewEncoder(os.Stdout)
	certified, rejected := 0, 0
	for _, vd := range verdicts {
		if err := out.Encode(vd); err != nil {
			fatal(err)
		}
		if vd.Certified {
			certified++
		} else {
			rejected++
		}
	}
	fmt.Fprintf(os.Stderr,
		"batch: %d submission(s): %d certified, %d rejected; engine runs %d, store hits %d, cache hits %d, in %v\n",
		len(verdicts), certified, rejected,
		st.ElementsSummarized, st.StoreHits, st.SummaryCacheHits, dur.Round(time.Millisecond))
	if statsFile != "" {
		rec := map[string]any{
			"submissions":          len(verdicts),
			"certified":            certified,
			"rejected":             rejected,
			"elements_summarized":  st.ElementsSummarized,
			"store_hits":           st.StoreHits,
			"store_misses":         st.StoreMisses,
			"summary_cache_hits":   st.SummaryCacheHits,
			"refinement_truncated": st.RefinementTruncated,
			"stitches_replayed":    st.StitchesReplayed,
			"stitches_built":       st.StitchesBuilt,
			"table_refinements":    st.TableRefinements,
			"step1_checks":         st.SymbexStats.SolverChecks,
			"step2_queries":        st.SolverQueries,
			"wall_ms":              dur.Milliseconds(),
		}
		// Certificate traffic (DESIGN.md §7.5): a warm pass whose walks
		// sent no stitch obligation to the SAT core saves no certificate.
		if disk, ok := opts.Store.(*verify.DiskStore); ok {
			ss := disk.Stats()
			rec["cert_hits"] = ss.CertHits
			rec["cert_misses"] = ss.CertMisses
			rec["cert_corrupt"] = ss.CertCorrupt
			rec["cert_saves"] = ss.CertSaves
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(statsFile, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vsdverify:", err)
	os.Exit(1)
}
