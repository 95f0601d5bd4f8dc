package main

// forward: packets forwarded per second, in process, over in-memory
// buffers (no NIC, no loopback). dataplane and compile do all the work
// and the verifier none, so every verifier optimisation must show here
// as no change, and the reverse.
//
// Five phases run as interleaved slices (round-robin, one untimed
// warm-up pass each; a phase's value is that of its median slice), so
// host drift hits all phases alike.

import (
	"fmt"
	"runtime"
	"time"

	"vsd/internal/click"
	"vsd/internal/dataplane"
	"vsd/internal/dataplane/compile"
	"vsd/internal/ir"
	"vsd/internal/packet"
)

const (
	workingSet = 4096 // distinct packets per phase
	batchSize  = 256  // Compiled.RunTrace's batch: the unit op_*_ms is quoted for
	sliceDur   = 125 * time.Millisecond
)

// phase is one forwarding measurement: a pipeline, its traffic, and how
// the dataplane is driven.
type phase struct {
	name   string
	pipe   *click.Pipeline
	frames []*packet.Buffer
	comp   *dataplane.Compiled
	// single drives Compiled.Process per packet with a CopyFrom scratch
	// buffer (batch-of-1) instead of Compiled.RunTrace.
	single  bool
	scratch *packet.Buffer
	// valid traffic must all be emitted; the mix may be dropped, never
	// crash.
	valid bool

	rates   []float64 // packets per second, one per slice
	timed   time.Duration
	packets int64
	bad     int64 // crashed, or dropped valid traffic
	steps   int64
	emitted int64
}

// pass forwards the working set once.
func (ph *phase) pass() {
	if !ph.single {
		s := ph.comp.RunTrace(ph.frames)
		ph.packets += s.Packets
		ph.steps += s.Steps
		ph.emitted += s.Emitted
		ph.bad += s.Crashed
		if ph.valid {
			ph.bad += s.Dropped
		}
		return
	}
	for _, buf := range ph.frames {
		ph.scratch.CopyFrom(buf)
		r := ph.comp.Process(ph.scratch)
		ph.packets++
		ph.steps += r.Steps
		switch r.Disposition {
		case ir.Emitted:
			ph.emitted++
		default:
			ph.bad++
		}
	}
}

// slice forwards passes for d and records the rate.
func (ph *phase) slice(d time.Duration) {
	before := ph.packets
	start := time.Now()
	for time.Since(start) < d {
		ph.pass()
	}
	el := time.Since(start)
	ph.timed += el
	ph.rates = append(ph.rates, float64(ph.packets-before)/el.Seconds())
}

// rate is the phase's packets per second: that of its median slice.
func (ph *phase) rate() float64 { return median(ph.rates) }

// batchMS is the phase's time to forward one batch.
func (ph *phase) batchMS() float64 { return 1e3 * ratio(batchSize, ph.rate()) }

// buildPhases is the set-up: generate traffic and pipelines from the
// seed, compile one runner per phase.
func buildPhases(seed int64) ([]*phase, error) {
	g := newGen(seed, "forward")
	router, err := parse(g.router(true, true, 3)) // the IPRouterConfig(true) shape
	if err != nil {
		return nil, err
	}
	nat, err := parse(g.nat())
	if err != nil {
		return nil, err
	}
	small := fixedFrames(seed, workingSet, 64, 250)
	phases := []*phase{
		{name: "router-64B-batch", pipe: router, frames: small, valid: true},
		{name: "router-64B-single", pipe: router, frames: small, valid: true, single: true},
		{name: "router-1514B-batch", pipe: router, frames: fixedFrames(seed, workingSet, 1514, 250), valid: true},
		{name: "nat-64B-batch", pipe: nat, frames: fixedFrames(seed+1, workingSet, 64, 64), valid: true},
		{name: "router-mix-batch", pipe: router, frames: mixFrames(seed, workingSet)},
	}
	for _, ph := range phases {
		if ph.comp, err = dataplane.NewCompiled(ph.pipe); err != nil {
			return nil, err
		}
		ph.scratch = packet.NewBuffer(nil)
	}
	return phases, nil
}

func runForward(c *runCtx) error {
	// Set-up is tens of milliseconds: repeat it, report the median.
	var phases []*phase
	var setups []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		var err error
		if phases, err = buildPhases(c.cfg.Seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Untimed: without it the repeats' garbage, not the working set,
		// decides the peak RSS (30–54 MB from run to run).
		runtime.GC()
	}
	c.set("setup_s", median(setups))

	d := sliceDur
	rounds := int(c.cfg.Seconds / (float64(len(phases)) * d.Seconds()))
	switch {
	case c.cfg.Short:
		d, rounds = 50*time.Millisecond, 2
	case c.cfg.Traced:
		rounds = 4 // the untraced reference of the decomposition below
	case rounds < 1:
		rounds = 1
	}
	for _, ph := range phases {
		ph.pass() // warm-up: pools, maps and frame storage all sized
		ph.packets, ph.bad, ph.steps, ph.emitted = 0, 0, 0, 0
	}
	for r := 0; r < rounds; r++ {
		for _, ph := range phases {
			ph.slice(d)
		}
	}

	fmt.Printf("# %-20s %3s %12s %10s %14s\n", "phase", "n", "Mpps", "Gbps", "ms_per_batch")
	var batch []float64
	var packets int64
	var timed time.Duration
	slow := 0.0
	for i, ph := range phases {
		c.attempted += int(ph.packets)
		if ph.bad > 0 {
			c.fail(int(ph.bad), "%s: %d packet(s) crashed or were dropped", ph.name, ph.bad)
		}
		// The differential oracle on a sample of the phase's traffic.
		if err := compareTiers(ph.pipe, ph.frames); err != nil {
			c.fail(int(ph.packets), "%s: %v", ph.name, err)
		}
		packets, timed = packets+ph.packets, timed+ph.timed
		b := ph.batchMS()
		batch = append(batch, b)
		slow = max(slow, b)
		bits := 0
		for _, f := range ph.frames {
			bits += 8 * len(f.Data)
		}
		fmt.Printf("# %-20s %3d %12.4f %10.3f %14.5f\n", ph.name, len(ph.rates), ph.rate()/1e6,
			ph.rate()*float64(bits)/float64(len(ph.frames))/1e9, b)
		c.set(partMetrics[i], b)
	}
	c.set("op_typical_ms", geomean(batch))
	c.set("op_slow_ms", slow)
	c.set("ops_per_s", ratio(float64(packets), timed.Seconds()))
	c.set("peak_rss_mb", procStatusMB(0, "VmHWM"))

	if c.cfg.Traced {
		return traceForward(c, phases, d)
	}
	return nil
}

// traceForward attributes phase (a)'s time per packet to the layers:
// the bytecode VM (compile) by a staged run outside the runner, the
// runner around it (dataplane) as the remainder, plus the cheap exact
// counts at their boundary.
func traceForward(c *runCtx, phases []*phase, d time.Duration) error {
	a, mix := phases[0], phases[4]
	ln := c.rec.lane("forward")
	untracedNS := 1e9 / a.rate()

	// Phase (a) batch by batch, a span around every RunTrace call,
	// alternating with the same loop with spans off: the ratio of the
	// two is the tracing overhead.
	var batchUS []float64
	chunked := func(ln *lane) float64 {
		pkts := 0
		start := time.Now()
		for op := 0; time.Since(start) < d/4; op++ {
			for i := 0; i < len(a.frames); i += batchSize {
				ln.begin("dataplane.batch", op)
				a.comp.RunTrace(a.frames[i : i+batchSize])
				if el := ln.end(); el > 0 {
					batchUS = append(batchUS, float64(el.Nanoseconds())/1e3)
				}
				pkts += batchSize
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(pkts)
	}
	var plainNS, tracedNS []float64
	off := (&recorder{}).lane("")
	for i := 0; i < 4; i++ {
		plainNS = append(plainNS, chunked(off))
		tracedNS = append(tracedNS, chunked(ln))
	}
	c.set("dataplane.batch_p50_us", median(batchUS))
	c.set("dataplane.batch_p99_us", quantile(batchUS, 0.99))
	c.set("trace.overhead_share", ratio(median(tracedNS), median(plainNS))-1)

	// Exact counts and allocations over whole passes.
	a.packets, a.steps = 0, 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 8; i++ {
		a.pass()
	}
	runtime.ReadMemStats(&m1)
	stepsPerPkt := ratio(float64(a.steps), float64(a.packets))
	c.set("dataplane.steps_per_pkt", stepsPerPkt)
	c.set("dataplane.ns_per_step", ratio(untracedNS, stepsPerPkt))
	c.set("dataplane.allocs_per_pkt", ratio(float64(m1.Mallocs-m0.Mallocs), float64(a.packets)))
	c.set("dataplane.fastpath_share", ratio(float64(mix.emitted), float64(mix.packets)))

	// The opcode profile: dispatches per packet and the fusion ratio.
	prof, err := dataplane.NewCompiled(a.pipe)
	if err != nil {
		return err
	}
	prof.EnableOpProfile()
	s := prof.RunTrace(a.frames)
	c.set("compile.dispatches_per_pkt", ratio(float64(prof.OpProfile().Dispatches()), float64(s.Packets)))
	c.set("compile.steps_per_dispatch", ratio(float64(prof.OpProfile().Steps()), float64(prof.OpProfile().Dispatches())))

	// NewCompiled, and the compile.Compile calls inside it on their own.
	ln.begin("dataplane.build", 0)
	if _, err := dataplane.NewCompiled(a.pipe); err != nil {
		return err
	}
	c.set("dataplane.build_ms", ms(ln.end()))
	st, err := newStaged(a.pipe, ln)
	if err != nil {
		return err
	}
	c.set("compile.compile_ms", ms(st.compileTime))
	c.set("compile.instrs", float64(st.instrs))

	// Frame.ResetFrom as one block, per frame size.
	c.set("dataplane.copy64_ns_per_pkt", st.copyCost(a.frames))
	c.set("dataplane.copy1514_ns_per_pkt", st.copyCost(phases[2].frames))

	// The staged run: VM time per packet, element by element, each pass
	// paired with a pass through the runner, so that the difference —
	// what the runner adds — is taken between neighbours in time.
	var vmNS, top, runnerNS []float64
	for i := 0; i < 16; i++ {
		before, t0 := a.packets, time.Now()
		a.pass()
		whole := ratio(float64(time.Since(t0).Nanoseconds()), float64(a.packets-before))
		total, max := st.run(a.frames, i)
		vmNS = append(vmNS, total)
		top = append(top, ratio(max, total))
		runnerNS = append(runnerNS, whole-total)
	}
	c.set("compile.vm_ns_per_pkt", median(vmNS))
	c.set("compile.vm_top_element_share", median(top))
	c.set("dataplane.runner_ns_per_pkt", median(runnerNS))

	// The oracle tier.
	interp := dataplane.NewRunner(a.pipe)
	interp.RunTrace(a.frames)
	ln.begin("dataplane.interp", 0)
	n := 0
	for i := 0; i < 4; i++ {
		n += int(interp.RunTrace(a.frames).Packets)
	}
	c.set("dataplane.interp_ns_per_pkt", ratio(float64(ln.end().Nanoseconds()), float64(n)))
	return nil
}

// staged runs a pipeline's compiled elements outside the dataplane
// runner: a batch through element 0's VM as one timed block, the
// survivors through the next element, and so on in topological order.
// What the runner adds — scheduling, queues, result folding, the copy —
// is absent, so the sum is the VM's own time.
type staged struct {
	pipe        *click.Pipeline
	lay         *packet.MetaLayout
	vms         []*compile.VM
	states      []*compile.ElemState
	order       []int
	frames      []*compile.Frame
	outcomes    []ir.Outcome
	queues      [][]int32
	ln          *lane
	compileTime time.Duration
	instrs      int
}

func newStaged(p *click.Pipeline, ln *lane) (*staged, error) {
	st := &staged{pipe: p, ln: ln, queues: make([][]int32, len(p.Elements))}
	progs := make([]*ir.Program, len(p.Elements))
	for i, e := range p.Elements {
		progs[i] = e.Program()
	}
	var err error
	if st.lay, err = compile.BuildLayout(progs); err != nil {
		return nil, err
	}
	for i, prog := range progs {
		ln.begin("compile.compile", i)
		cp, err := compile.Compile(prog, st.lay)
		st.compileTime += ln.end()
		if err != nil {
			return nil, err
		}
		st.instrs += cp.NumInstrs()
		st.vms = append(st.vms, compile.NewVM(cp))
		st.states = append(st.states, compile.NewElemState(cp))
	}
	// Topological order of the element DAG (click.Build rejects cycles).
	indeg := make([]int, len(p.Elements))
	for _, edges := range p.Edges {
		for _, e := range edges {
			if e.To >= 0 {
				indeg[e.To]++
			}
		}
	}
	for i, n := range indeg {
		if n == 0 {
			st.order = append(st.order, i)
		}
	}
	for i := 0; i < len(st.order); i++ {
		for _, e := range p.Edges[st.order[i]] {
			if e.To >= 0 {
				if indeg[e.To]--; indeg[e.To] == 0 {
					st.order = append(st.order, e.To)
				}
			}
		}
	}
	return st, nil
}

func (st *staged) load(frames []*packet.Buffer) {
	for len(st.frames) < len(frames) {
		st.frames = append(st.frames, compile.NewFrame(st.lay.NumSlots()))
	}
	for i, buf := range frames {
		st.frames[i].ResetFrom(st.lay, buf)
	}
}

// copyCost times Frame.ResetFrom over the working set, ns per packet
// (median of 16 blocks).
func (st *staged) copyCost(frames []*packet.Buffer) float64 {
	st.load(frames)
	var ns []float64
	for i := 0; i < 16; i++ {
		st.ln.begin("dataplane.copy", i)
		st.load(frames)
		ns = append(ns, ratio(float64(st.ln.end().Nanoseconds()), float64(len(frames))))
	}
	return median(ns)
}

// run makes one staged pass, batch by batch like the runner (a block of
// the whole working set per element would fall out of the cache the
// runner's 256-frame batches stay in); it returns the summed VM time
// and the slowest element's, in ns per packet.
func (st *staged) run(frames []*packet.Buffer, op int) (total, max float64) {
	st.load(frames)
	if st.outcomes == nil {
		st.outcomes = make([]ir.Outcome, batchSize)
	}
	perElem := make([]time.Duration, len(st.pipe.Elements))
	for lo := 0; lo < len(frames); lo += batchSize {
		q := st.queues[st.pipe.Entry][:0]
		for i := lo; i < lo+batchSize && i < len(frames); i++ {
			q = append(q, int32(i))
		}
		st.queues[st.pipe.Entry] = q
		for _, elem := range st.order {
			q := st.queues[elem]
			if len(q) == 0 {
				continue
			}
			vm, state, out := st.vms[elem], st.states[elem], st.outcomes[:len(q)]
			st.ln.begin("compile.vm."+st.pipe.Elements[elem].Name(), op)
			for j, fi := range q {
				out[j] = vm.Run(st.frames[fi], state)
			}
			perElem[elem] += st.ln.end()
			for j, fi := range q {
				if out[j].Disposition == ir.Emitted {
					if to := st.pipe.Edges[elem][out[j].Port].To; to >= 0 {
						st.queues[to] = append(st.queues[to], fi)
					}
				}
			}
			st.queues[elem] = q[:0]
		}
	}
	for _, d := range perElem {
		ns := float64(d.Nanoseconds()) / float64(len(frames))
		total += ns
		if ns > max {
			max = ns
		}
	}
	return total, max
}
