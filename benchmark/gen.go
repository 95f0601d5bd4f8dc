package main

// Seeded input generators. Everything the program under test sees —
// Click configurations, HTTP request bodies, packets — is produced
// here from the run's seed: the same seed gives byte-identical inputs,
// a different seed gives pipelines with different fingerprints (so no
// run can be served from another run's store or caches). Only values
// are seeded; the *shape* of every input (element count, route-table
// size, rule count, frame size) is fixed. In corpus-12 the seed reaches
// only values that no path condition compares against (MACs, rewrite
// addresses, paint colours): a route table or a rule list with other
// numbers in it is other work for the solver — the warm csum router
// took 58 to 83 ms over eight seeded tables, 62 to 66 ms over eight
// seeded MAC pairs — and the work a run does must not depend on which
// seed it drew.

import (
	"fmt"
	"math/rand"
	"strings"

	"vsd/internal/packet"
	"vsd/internal/workload"
)

// Pipeline classes of corpus-12. Each is in the corpus because it loads
// a different layer (README, "corpus-12").
const (
	classLoop  = "loop"  // full router with IPOptions: Step-1 loop summarization dominates
	classCsum  = "csum"  // validating CheckIPHeader: the solver-heavy checksum constraint
	classPlain = "plain" // loop-free, stateless: parse/fingerprint/store I/O are visible
	classState = "state" // private state: adds the bad-value refinement and k-induction
	classBuggy = "buggy" // must be refused with a witness
)

var corpusClasses = []string{classLoop, classCsum, classPlain, classState, classBuggy}

// lightClasses are the classes the smoke-sized pass keeps (everything
// that certifies in milliseconds).
var lightClasses = []string{classPlain, classState, classBuggy}

// pipelineSpec is one generated submission with its known answer.
type pipelineSpec struct {
	Name  string
	Class string
	Src   string
	// Certified is the verdict the configuration must get, by
	// construction: every element combination here is either provably
	// crash-free or contains one designed fault.
	Certified bool
}

// gen draws input values: rng those the seed may reach freely, cond
// those a path condition compares against (route tables, filter rules,
// read offsets, length limits). The two are one stream, except in
// corpus-12, where cond is the same for every seed.
type gen struct{ rng, cond *rand.Rand }

func newGen(seed int64, stream string) *gen {
	// Independent streams per input family, so adding a draw to one
	// generator never shifts another's inputs.
	h := int64(0)
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed*1000003 + h))
	return &gen{rng: rng, cond: rng}
}

func (g *gen) mac() string {
	return fmt.Sprintf("02:%02x:%02x:%02x:%02x:%02x", g.rng.Intn(256), g.rng.Intn(256),
		g.rng.Intn(256), g.rng.Intn(256), g.rng.Intn(256))
}

func (g *gen) ip() uint32 { return g.rng.Uint32() }

// cidr draws a prefix of the given length.
func (g *gen) cidr(bits int) string {
	addr := g.cond.Uint32() &^ (1<<(32-bits) - 1)
	return fmt.Sprintf("%s/%d", packet.FormatIP4(addr), bits)
}

// routeLens fixes the prefix length of every route-table position.
var routeLens = []int{8, 16, 24, 12, 20, 16, 24, 12}

// routes draws a table of n prefixes plus a default route, spread over
// output ports 0..2 (the router template's fan-out). Only the first
// octet of each prefix is drawn — distinct and even, so prefixes never
// nest or abut — and the prefix lengths are fixed per position: every
// table of n routes compiles to the same number of ranges. With the
// remaining address bits drawn too, a warm loop certification cost
// 880 ms or 1300 ms depending on the seed.
func (g *gen) routes(n int) string {
	first := g.cond.Perm(125)[:n] // first octets 2, 4, ..., 250
	var out []string
	for i, f := range first {
		bits := routeLens[i%len(routeLens)]
		addr := uint32(2*f+2) << 24
		out = append(out, fmt.Sprintf("%s/%d %d", packet.FormatIP4(addr), bits, i%2))
	}
	out = append(out, "0.0.0.0/0 2")
	return strings.Join(out, ", ")
}

// filterRules draws a first-match rule list of fixed shape.
func (g *gen) filterRules() string {
	return fmt.Sprintf("allow proto udp dport %d, deny dst %s, allow proto tcp dport %d, deny src %s, allow proto tcp",
		1+g.cond.Intn(1023), g.cidr(8), 1+g.cond.Intn(1023), g.cidr(16))
}

// router renders the evaluation IP router with the given knobs.
func (g *gen) router(options, checksum bool, nRoutes int) string {
	chk := "CheckIPHeader(NOCHECKSUM)"
	if checksum {
		chk = "CheckIPHeader"
	}
	opt, optWire := "", "chk [0] -> rt;"
	if options {
		opt = "opt :: IPOptions;"
		optWire = "chk [0] -> opt; opt [0] -> rt; opt [1] -> bad;"
	}
	return fmt.Sprintf(`src :: InfiniteSource;
cls :: Classifier(12/0800, -);
strip :: Strip(14);
chk :: %s;
%s
rt :: LookupIPRoute(%s);
ttl :: DecIPTTL;
encap :: EtherEncap(0800, %s, %s);
bad :: Discard;
src -> cls;
cls [0] -> strip -> chk;
cls [1] -> Discard;
chk [1] -> bad;
%s
rt [0] -> ttl;
rt [1] -> ttl;
rt [2] -> ttl;
ttl [0] -> encap;
ttl [1] -> Discard;
`, chk, opt, g.routes(nRoutes), g.mac(), g.mac(), optWire)
}

// front is the classifier/strip/check prefix every non-router pipeline
// shares; body names the element fed by chk[0].
func front(body string) string {
	return `src :: InfiniteSource;
cls :: Classifier(12/0800, -);
strip :: Strip(14);
chk :: CheckIPHeader(NOCHECKSUM);
src -> cls;
cls [0] -> strip -> chk;
cls [1] -> Discard;
chk [1] -> Discard;
` + body
}

func (g *gen) filter() string {
	return front(fmt.Sprintf("flt :: IPFilter(%s);\npt :: Paint(%d);\nchk [0] -> flt -> pt;\n", g.filterRules(), g.rng.Intn(256)))
}

func (g *gen) nat() string {
	return front(fmt.Sprintf("nat :: IPRewriter(SNAT %s);\nencap :: EtherEncap(0800, %s, %s);\nchk [0] -> nat -> encap;\n",
		packet.FormatIP4(g.ip()|1), g.mac(), g.mac()))
}

func (g *gen) probe() string {
	return front(fmt.Sprintf("probe :: FixedReader(%d);\npt :: Paint(%d);\nrt :: LookupIPRoute(%s);\nchk [0] -> probe -> pt -> rt;\n",
		20+g.cond.Intn(24), g.rng.Intn(256), g.routes(2)))
}

func (g *gen) paint() string {
	return front(fmt.Sprintf("pt :: Paint(%d);\nlen :: CheckLength(%d);\nchk [0] -> pt -> len;\nlen [1] -> Discard;\n",
		g.rng.Intn(256), 64+g.cond.Intn(1400)))
}

func (g *gen) netflow() string {
	return front(fmt.Sprintf("nf :: NetFlow(%d);\nencap :: EtherEncap(0800, %s, %s);\nchk [0] -> nf -> encap;\n",
		256+g.cond.Intn(3840), g.mac(), g.mac()))
}

// counter wraps the (parameterless) counter so the pipeline fingerprint
// still follows the seed.
func (g *gen) counter(saturate bool) string {
	cfg := ""
	if saturate {
		cfg = "SATURATE"
	}
	return fmt.Sprintf("src :: InfiniteSource;\npt :: Paint(%d);\ncnt :: Counter(%s);\nsrc -> pt -> cnt -> Discard;\n",
		g.rng.Intn(256), cfg)
}

// unsafeReader reads 4 bytes at a fixed offset with no length check;
// any offset past MinFrame-4 faults on short frames.
func (g *gen) unsafeReader() string {
	return front(fmt.Sprintf("rd :: UnsafeReader(%d);\npt :: Paint(%d);\nrt :: LookupIPRoute(%s);\nchk [0] -> rd -> pt -> rt;\n",
		36+g.cond.Intn(8), g.rng.Intn(256), g.routes(2)))
}

// corpus12 generates the certification corpus: 2 loop, 1 csum, 4 plain,
// 3 state, 2 buggy. classes, when non-nil, keeps only those classes.
func corpus12(seed int64, classes []string) []pipelineSpec {
	g := newGen(seed, "corpus")
	g.cond = newGen(0, "corpus-cond").rng
	all := []pipelineSpec{
		{"loop-a", classLoop, g.router(true, false, 4), true},
		{"loop-b", classLoop, g.router(true, false, 6), true},
		{"csum-router", classCsum, g.router(false, true, 4), true},
		{"plain-router", classPlain, g.router(false, false, 4), true},
		{"plain-filter", classPlain, g.filter(), true},
		{"plain-probe", classPlain, g.probe(), true},
		{"plain-paint", classPlain, g.paint(), true},
		{"state-nat", classState, g.nat(), true},
		{"state-netflow", classState, g.netflow(), true},
		{"state-counter", classState, g.counter(true), true},
		{"buggy-reader", classBuggy, g.unsafeReader(), false},
		{"buggy-counter", classBuggy, g.counter(false), false},
	}
	if classes == nil {
		return all
	}
	var out []pipelineSpec
	for _, p := range all {
		for _, c := range classes {
			if p.Class == c {
				out = append(out, p)
			}
		}
	}
	return out
}

// Request classes of serve-mixed.
const (
	reqResubmit   = "resubmit"    // an already-certified configuration again
	reqNovelLight = "novel_light" // new element fingerprints, no loop: store miss, engine run, Save
	reqNovelLoop  = "novel_loop"  // full router with a fresh route table
	reqBuggy      = "buggy"       // must come back certified:false with a witness
	reqUnparsable = "unparsable"  // must come back 422: a correct refusal
)

var requestClasses = []string{reqResubmit, reqNovelLight, reqNovelLoop, reqBuggy, reqUnparsable}

// request is one POST /verify with its known answer.
type request struct {
	Class      string
	Name       string
	Body       string
	WantStatus int
	// Certified is the expected verdict (meaningful when WantStatus is 200).
	Certified bool
}

// mixBlock is the request mix, exact per block of 20: 60 % resubmit,
// 25 % novel light, 5 % novel loop, 5 % buggy, 5 % unparsable. Drawing
// classes independently instead would let the number of expensive
// novel-loop requests in a short window swing the throughput by tens of
// percent from seed to seed.
var mixBlock = []struct {
	class string
	n     int
}{{reqResubmit, 12}, {reqNovelLight, 5}, {reqNovelLoop, 1}, {reqBuggy, 1}, {reqUnparsable, 1}}

// serveBase generates the four configurations the daemon is pre-warmed
// with (the shapes of examples/corpus: router, filter, NAT, probe).
// Resubmissions are drawn from them.
func serveBase(seed int64) []pipelineSpec {
	g := newGen(seed, "serve-base")
	return []pipelineSpec{
		{"base-router", classLoop, g.router(true, false, 3), true},
		{"base-filter", classPlain, g.filter(), true},
		{"base-nat", classState, g.nat(), true},
		{"base-probe", classPlain, g.probe(), true},
	}
}

// mixStream is the seeded request stream of serve-mixed: an endless
// sequence of blocks (mixBlock, shuffled inside the block), generated
// as the client asks for them, so the timed window is full however
// fast the daemon answers. base is the pre-warmed set.
type mixStream struct {
	g     *gen
	base  []pipelineSpec
	n     int // requests handed out
	block []request
}

func newMixStream(seed int64, base []pipelineSpec) *mixStream {
	return &mixStream{g: newGen(seed, "serve-mix"), base: base}
}

func (m *mixStream) next() request {
	if len(m.block) == 0 {
		for _, c := range mixBlock {
			for i := 0; i < c.n; i++ {
				m.block = append(m.block, m.g.request(c.class, m.base, m.n+len(m.block)))
			}
		}
		m.g.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	r := m.block[0]
	m.block = m.block[1:]
	m.n++
	return r
}

func (g *gen) request(class string, base []pipelineSpec, n int) request {
	r := request{Class: class, Name: fmt.Sprintf("%s-%d", class, n), WantStatus: 200, Certified: true}
	switch class {
	case reqResubmit:
		b := base[g.rng.Intn(len(base))]
		r.Name, r.Body = b.Name, b.Src
	case reqNovelLight:
		switch n % 3 { // the three shapes in turn, so every window holds the same blend
		case 0:
			r.Body = g.filter()
		case 1:
			r.Body = g.nat()
		default:
			r.Body = g.router(false, false, 3)
		}
	case reqNovelLoop:
		r.Body = g.router(true, false, 3)
	case reqBuggy:
		r.Body, r.Certified = g.unsafeReader(), false
	case reqUnparsable:
		r.WantStatus, r.Certified = 422, false
		if g.rng.Intn(2) == 0 {
			r.Body = fmt.Sprintf("src :: InfiniteSource;\nx :: NoSuchElement%d(1);\nsrc -> x -> Discard;\n", g.rng.Intn(1<<20))
		} else {
			r.Body = fmt.Sprintf("src :: InfiniteSource;\nsrc -> -> Paint(%d);\n", g.rng.Intn(256))
		}
	}
	return r
}

// fixedFrames builds n valid IPv4/UDP frames of exactly size bytes, no
// IP options, with addresses drawn from hosts distinct hosts. They pass
// CheckIPHeader with checksum validation on.
func fixedFrames(seed int64, n, size, hosts int) []*packet.Buffer {
	g := newGen(seed, fmt.Sprintf("frames-%d", size))
	prefixes := []uint32{packet.IP4(10, 0, 0, 0), packet.IP4(192, 168, 0, 0), packet.IP4(8, 8, 0, 0)}
	addr := func() uint32 { return prefixes[g.rng.Intn(len(prefixes))] | uint32(g.rng.Intn(hosts)+1) }
	out := make([]*packet.Buffer, n)
	for i := range out {
		payload := make([]byte, size-packet.EthernetHeaderLen-packet.IPv4MinHeaderLen)
		g.rng.Read(payload[:8]) // UDP header: ports, length, checksum
		buf, err := packet.BuildIPv4(packet.IPv4Spec{
			SrcMAC:   [6]byte{2, 0, 0, 0, 0, byte(g.rng.Intn(255))},
			DstMAC:   [6]byte{2, 0, 0, 0, 1, byte(g.rng.Intn(255))},
			SrcIP:    addr(),
			DstIP:    addr(),
			TTL:      uint8(2 + g.rng.Intn(253)),
			Protocol: packet.ProtoUDP,
			Payload:  payload,
		})
		if err != nil {
			panic("benchmark: fixedFrames built an invalid spec: " + err.Error())
		}
		out[i] = buf
	}
	return out
}

// mixFrames is the workload.Mix shape: 80 % well-formed (a quarter of
// those carrying IP options), 10 % adversarial, 10 % random.
func mixFrames(seed int64, n int) []*packet.Buffer {
	return workload.New(workload.Spec{Seed: seed}).Mix(n)
}
