package elements

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"vsd/internal/bv"
	"vsd/internal/ir"
	"vsd/internal/packet"
)

// exec runs a single element over a packet with the given header offset.
func exec(t *testing.T, prog *ir.Program, data []byte, hoff uint32) (ir.Outcome, *ir.ExecEnv) {
	t.Helper()
	env := &ir.ExecEnv{
		Pkt:   append([]byte{}, data...),
		Meta:  map[string]bv.V{packet.MetaHeaderOffset: bv.New(32, uint64(hoff))},
		State: ir.NewState(),
	}
	return ir.Exec(prog, env), env
}

func mustBuild(t *testing.T, ctor func(string) (*ir.Program, error), cfg string) *ir.Program {
	t.Helper()
	p, err := ctor(cfg)
	if err != nil {
		t.Fatalf("constructor failed: %v", err)
	}
	return p
}

func validIPv4(t *testing.T, ttl uint8, dst uint32, opts []byte) *packet.Buffer {
	t.Helper()
	buf, err := packet.BuildIPv4(packet.IPv4Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: dst,
		TTL: ttl, Protocol: packet.ProtoUDP,
		Options: opts,
		Payload: []byte{0x04, 0xd2, 0x00, 0x35, 0, 8, 0, 0}, // UDP 1234 -> 53
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestStripAdjustsHeaderOffset(t *testing.T) {
	p := mustBuild(t, Strip, "14")
	out, env := exec(t, p, make([]byte, 64), 0)
	if out.Disposition != ir.Emitted {
		t.Fatalf("outcome %+v", out)
	}
	if env.Meta[packet.MetaHeaderOffset].U != 14 {
		t.Errorf("hoff = %d, want 14", env.Meta[packet.MetaHeaderOffset].U)
	}
}

func TestEtherEncapWritesHeader(t *testing.T) {
	p := mustBuild(t, EtherEncap, "0800, 00:01:02:03:04:05, 0a:0b:0c:0d:0e:0f")
	data := make([]byte, 64)
	out, env := exec(t, p, data, 14) // room for the header
	if out.Disposition != ir.Emitted {
		t.Fatalf("outcome %+v", out)
	}
	if env.Meta[packet.MetaHeaderOffset].U != 0 {
		t.Errorf("hoff = %d, want 0", env.Meta[packet.MetaHeaderOffset].U)
	}
	eth, err := packet.EthernetAt(env.Pkt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eth.Type() != packet.EtherTypeIPv4 {
		t.Errorf("ethertype = %#x", eth.Type())
	}
	if eth.Dst()[0] != 0x0a || eth.Src()[5] != 0x05 {
		t.Errorf("MACs wrong: dst % x src % x", eth.Dst(), eth.Src())
	}
	// Without room, the wrapped offset faults — the suspect behaviour
	// the verifier must reason about.
	out, _ = exec(t, p, data, 0)
	if out.Disposition != ir.Crashed || out.Crash.Kind != ir.CrashOOB {
		t.Fatalf("encap at hoff 0: %+v, want OOB crash", out)
	}
}

func TestCheckIPHeaderAcceptsValid(t *testing.T) {
	p := mustBuild(t, CheckIPHeader, "")
	buf := validIPv4(t, 64, packet.IP4(192, 168, 0, 9), nil)
	out, _ := exec(t, p, buf.Data, packet.EthernetHeaderLen)
	if out.Disposition != ir.Emitted || out.Port != 0 {
		t.Fatalf("valid packet: %+v, want emit 0", out)
	}
}

func TestCheckIPHeaderRejectsBad(t *testing.T) {
	p := mustBuild(t, CheckIPHeader, "")
	valid := validIPv4(t, 64, packet.IP4(192, 168, 0, 9), nil)

	cases := []struct {
		name   string
		mutate func(d []byte) []byte
	}{
		{"short packet", func(d []byte) []byte { return d[:20] }},
		{"bad version", func(d []byte) []byte { d[14] = 0x65; return d }},
		{"ihl too small", func(d []byte) []byte { d[14] = 0x44; return d }},
		{"ihl beyond packet", func(d []byte) []byte { d[14] = 0x4f; return d }},
		{"bad checksum", func(d []byte) []byte { d[14+10] ^= 0xff; return d }},
		{"total length too large", func(d []byte) []byte { d[14+2] = 0x7f; return d }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := c.mutate(append([]byte{}, valid.Data...))
			out, _ := exec(t, p, data, packet.EthernetHeaderLen)
			if out.Disposition != ir.Emitted || out.Port != 1 {
				t.Fatalf("%s: %+v, want emit 1", c.name, out)
			}
		})
	}
}

func TestCheckIPHeaderNoChecksumOption(t *testing.T) {
	p := mustBuild(t, CheckIPHeader, "NOCHECKSUM")
	buf := validIPv4(t, 64, packet.IP4(1, 2, 3, 4), nil)
	buf.Data[14+10] ^= 0xff // corrupt checksum
	out, _ := exec(t, p, buf.Data, packet.EthernetHeaderLen)
	if out.Port != 0 {
		t.Fatalf("NOCHECKSUM should accept corrupted checksum: %+v", out)
	}
	if _, err := CheckIPHeader("BOGUS"); err == nil {
		t.Error("bogus option accepted")
	}
}

func TestCheckIPHeaderNeverCrashesConcretely(t *testing.T) {
	// Fuzz: arbitrary bytes and offsets must classify, never fault.
	p := mustBuild(t, CheckIPHeader, "")
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(80)
		data := make([]byte, n)
		r.Read(data)
		out, _ := exec(t, p, data, uint32(r.Intn(20)))
		if out.Disposition == ir.Crashed {
			t.Fatalf("CheckIPHeader crashed on % x: %v", data, out.Crash)
		}
	}
}

func TestDecIPTTLDecrementsAndPreservesChecksum(t *testing.T) {
	p := mustBuild(t, DecIPTTL, "")
	f := func(ttl uint8, a, b2, c, d byte) bool {
		if ttl <= 1 {
			ttl += 2
		}
		buf := validIPv4(t, ttl, packet.IP4(a, b2, c, d), nil)
		out, env := exec(t, p, buf.Data, packet.EthernetHeaderLen)
		if out.Disposition != ir.Emitted || out.Port != 0 {
			return false
		}
		ip, err := packet.IPv4At(env.Pkt, packet.EthernetHeaderLen)
		if err != nil {
			return false
		}
		if ip.TTL() != ttl-1 {
			return false
		}
		want, err := ip.ComputeChecksum()
		return err == nil && ip.Checksum() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecIPTTLExpires(t *testing.T) {
	p := mustBuild(t, DecIPTTL, "")
	for _, ttl := range []uint8{0, 1} {
		buf := validIPv4(t, ttl, packet.IP4(1, 1, 1, 1), nil)
		out, _ := exec(t, p, buf.Data, packet.EthernetHeaderLen)
		if out.Disposition != ir.Emitted || out.Port != 1 {
			t.Fatalf("ttl %d: %+v, want emit 1", ttl, out)
		}
	}
}

func TestIPOptionsWalk(t *testing.T) {
	p := mustBuild(t, IPOptions, "")
	cases := []struct {
		name string
		opts []byte
		port int
	}{
		{"no options", nil, 0},
		{"nops and eol", []byte{1, 1, 1, 0}, 0},
		{"valid tlv", []byte{7, 4, 0, 0}, 0}, // record-route-ish TLV filling 4 bytes
		{"tlv then eol", []byte{0x44, 2, 1, 0}, 0},
		{"length zero", []byte{7, 0, 0, 0}, 1},
		{"length one", []byte{7, 1, 0, 0}, 1},
		{"length overruns", []byte{7, 9, 0, 0}, 1},
		{"truncated tlv", []byte{1, 1, 1, 7}, 1}, // type at last byte, no length
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			buf := validIPv4(t, 9, packet.IP4(1, 2, 3, 4), c.opts)
			out, _ := exec(t, p, buf.Data, packet.EthernetHeaderLen)
			if out.Disposition != ir.Emitted || out.Port != c.port {
				t.Fatalf("%s: %+v, want emit %d", c.name, out, c.port)
			}
		})
	}
}

func TestLookupIPRouteMatchesReferenceLPM(t *testing.T) {
	cfg := "10.0.0.0/8 0, 10.1.0.0/16 1, 10.1.2.0/24 2, 192.168.0.0/16 10.9.9.9 1, 0.0.0.0/0 3"
	p := mustBuild(t, LookupIPRoute, cfg)
	routes, _, err := parseRoutes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b2, c, d byte) bool {
		addr := packet.IP4(a, b2, c, d)
		buf := validIPv4(t, 64, addr, nil)
		out, env := exec(t, p, buf.Data, packet.EthernetHeaderLen)
		want, okRoute := lpmRoute(routes, addr)
		if !okRoute {
			return out.Disposition == ir.Dropped
		}
		if out.Disposition != ir.Emitted || out.Port != want.port {
			return false
		}
		return env.Meta[packet.MetaGateway].U == uint64(want.gw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	// Directed probes for each prefix level.
	probes := []struct {
		addr uint32
		port int
	}{
		{packet.IP4(10, 200, 0, 1), 0},
		{packet.IP4(10, 1, 9, 1), 1},
		{packet.IP4(10, 1, 2, 200), 2},
		{packet.IP4(192, 168, 77, 1), 1},
		{packet.IP4(8, 8, 8, 8), 3},
	}
	for _, pr := range probes {
		buf := validIPv4(t, 64, pr.addr, nil)
		out, _ := exec(t, p, buf.Data, packet.EthernetHeaderLen)
		if out.Port != pr.port {
			t.Errorf("route %s: port %d, want %d", packet.FormatIP4(pr.addr), out.Port, pr.port)
		}
	}
}

func TestCompileLPMProducesValidTable(t *testing.T) {
	routes, _, err := parseRoutes("10.0.0.0/8 0, 10.1.0.0/16 1, 0.0.0.0/0 2")
	if err != nil {
		t.Fatal(err)
	}
	entries := compileLPM(routes)
	table := &ir.StaticTable{Name: "t", KeyW: 32, ValW: 64, Entries: entries, Default: noRouteSentinel}
	if err := table.Validate(); err != nil {
		t.Fatalf("compiled table invalid: %v", err)
	}
	// With a default route the table must cover the whole address space.
	if entries[0].Lo != 0 || entries[len(entries)-1].Hi != uint64(^uint32(0)) {
		t.Errorf("table does not span the address space: %+v", entries)
	}
}

// lpmRoute resolves longest-prefix-match over parsed routes for one
// address, the first of equal prefixes winning: the reference that
// compileLPM's sweep is checked against.
func lpmRoute(routes []routeEntry, addr uint32) (routeEntry, bool) {
	best := -1
	for i, r := range routes {
		lo, hi := r.prefix.Range()
		if addr < lo || addr > hi {
			continue
		}
		if best == -1 || r.prefix.Bits > routes[best].prefix.Bits {
			best = i
		}
	}
	if best == -1 {
		return routeEntry{}, false
	}
	return routes[best], true
}

// compileLPMReference is the quadratic compiler the sweep replaced: it
// resolves every elementary interval with lpmRoute.
func compileLPMReference(routes []routeEntry) []ir.RangeEntry {
	bounds := map[uint64]bool{0: true}
	for _, r := range routes {
		lo, hi := r.prefix.Range()
		bounds[uint64(lo)] = true
		bounds[uint64(hi)+1] = true
	}
	pts := make([]uint64, 0, len(bounds))
	for p := range bounds {
		if p <= uint64(^uint32(0)) {
			pts = append(pts, p)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	var out []ir.RangeEntry
	for i, lo := range pts {
		hi := uint64(^uint32(0))
		if i+1 < len(pts) {
			hi = pts[i+1] - 1
		}
		val := uint64(noRouteSentinel)
		if r, ok := lpmRoute(routes, uint32(lo)); ok {
			val = uint64(r.gw)<<8 | uint64(r.port)
		}
		if n := len(out); n > 0 && out[n-1].Val == val && out[n-1].Hi+1 == lo {
			out[n-1].Hi = hi
			continue
		}
		out = append(out, ir.RangeEntry{Lo: lo, Hi: hi, Val: val})
	}
	return out
}

// TestCompileLPMMatchesReference compares the sweep with the quadratic
// reference on random tables of nested, duplicate, /0 and /32 prefixes.
func TestCompileLPMMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		var routes []routeEntry
		for n := r.Intn(24); len(routes) < n; {
			var c cidr
			switch k := r.Intn(6); {
			case k == 0 && len(routes) > 0:
				// A duplicate prefix on another port.
				c = routes[r.Intn(len(routes))].prefix
			case k == 1 && len(routes) > 0:
				// A prefix nested in an earlier one.
				outer := routes[r.Intn(len(routes))].prefix
				c = cidr{Addr: outer.Addr | r.Uint32()>>outer.Bits, Bits: outer.Bits + r.Intn(33-outer.Bits)}
			case k == 2:
				c = cidr{Bits: []int{0, 32}[r.Intn(2)], Addr: r.Uint32()}
			default:
				// Few high bits, so prefixes collide often.
				c = cidr{Addr: r.Uint32() & 0xe0f00000, Bits: r.Intn(33)}
			}
			if c.Bits < 32 {
				c.Addr &= ^uint32(0) << (32 - c.Bits)
			}
			if c.Bits == 0 {
				c.Addr = 0
			}
			routes = append(routes, routeEntry{prefix: c, gw: r.Uint32() & 3, port: r.Intn(4)})
		}
		got, want := compileLPM(routes), compileLPMReference(routes)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("routes %+v:\n got %+v\nwant %+v", routes, got, want)
		}
	}
}

func TestClassifierDispatch(t *testing.T) {
	// The Click IP-router front end: IP to 0, ARP to 1, rest to 2.
	p := mustBuild(t, Classifier, "12/0800, 12/0806, -")
	mk := func(etype uint16) []byte {
		d := make([]byte, 20)
		d[12] = byte(etype >> 8)
		d[13] = byte(etype)
		return d
	}
	cases := []struct {
		etype uint16
		port  int
	}{
		{packet.EtherTypeIPv4, 0},
		{packet.EtherTypeARP, 1},
		{packet.EtherTypeVLAN, 2},
	}
	for _, c := range cases {
		out, _ := exec(t, p, mk(c.etype), 0)
		if out.Disposition != ir.Emitted || out.Port != c.port {
			t.Errorf("etype %#x: %+v, want emit %d", c.etype, out, c.port)
		}
	}
	// Too-short packet falls to the catch-all rather than faulting.
	out, _ := exec(t, p, make([]byte, 8), 0)
	if out.Disposition != ir.Emitted || out.Port != 2 {
		t.Errorf("short packet: %+v, want catch-all", out)
	}
}

func TestClassifierWithMaskAndMultipleTests(t *testing.T) {
	// ARP request vs reply: opcode halfword at offset 20.
	p := mustBuild(t, Classifier, "12/0806 20/0001, 12/0806 20/0002, -")
	mk := func(op byte) []byte {
		d := make([]byte, 22)
		d[12], d[13] = 0x08, 0x06
		d[21] = op
		return d
	}
	if out, _ := exec(t, p, mk(1), 0); out.Port != 0 {
		t.Errorf("ARP request: port %d", out.Port)
	}
	if out, _ := exec(t, p, mk(2), 0); out.Port != 1 {
		t.Errorf("ARP reply: port %d", out.Port)
	}
	// Masked test: high nibble only.
	pm := mustBuild(t, Classifier, "0/40%f0, -")
	if out, _ := exec(t, pm, []byte{0x45, 0, 0, 0}, 0); out.Port != 0 {
		t.Errorf("masked match: port %d", out.Port)
	}
	if out, _ := exec(t, pm, []byte{0x61, 0, 0, 0}, 0); out.Port != 1 {
		t.Errorf("masked mismatch: port %d", out.Port)
	}
}

func TestClassifierNoCatchAllDrops(t *testing.T) {
	p := mustBuild(t, Classifier, "12/0800")
	out, _ := exec(t, p, make([]byte, 20), 0)
	if out.Disposition != ir.Dropped {
		t.Errorf("unmatched packet: %+v, want drop", out)
	}
}

func TestIPFilterSemantics(t *testing.T) {
	p := mustBuild(t, IPFilter, "allow proto udp dport 53, deny src 10.0.0.0/8, allow proto tcp")
	mk := func(proto uint8, src uint32, dport uint16) []byte {
		buf, err := packet.BuildIPv4(packet.IPv4Spec{
			SrcIP: src, DstIP: packet.IP4(1, 1, 1, 1), TTL: 9, Protocol: proto,
			Payload: []byte{0x00, 0x07, byte(dport >> 8), byte(dport), 0, 8, 0, 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Data
	}
	cases := []struct {
		name  string
		data  []byte
		allow bool
	}{
		{"dns allowed", mk(packet.ProtoUDP, packet.IP4(10, 1, 1, 1), 53), true},
		{"udp non-dns from 10/8 denied", mk(packet.ProtoUDP, packet.IP4(10, 1, 1, 1), 80), false},
		{"tcp outside 10/8 allowed", mk(packet.ProtoTCP, packet.IP4(11, 1, 1, 1), 80), true},
		{"icmp unmatched default-denied", mk(packet.ProtoICMP, packet.IP4(11, 1, 1, 1), 0), false},
	}
	for _, c := range cases {
		out, _ := exec(t, p, c.data, packet.EthernetHeaderLen)
		got := out.Disposition == ir.Emitted
		if got != c.allow {
			t.Errorf("%s: %+v, want allow=%v", c.name, out, c.allow)
		}
	}
}

func TestCounterVariants(t *testing.T) {
	unsafe := mustBuild(t, Counter, "")
	env := &ir.ExecEnv{Pkt: make([]byte, 20), Meta: map[string]bv.V{}, State: ir.NewState()}
	for i := 0; i < 3; i++ {
		if out := ir.Exec(unsafe, env); out.Disposition != ir.Emitted {
			t.Fatalf("count %d: %+v", i, out)
		}
	}
	if got := env.State.Read(unsafe.States[0], 0); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	// Force the overflow the verifier warns about.
	env.State["count"] = map[uint64]uint64{0: 0xffffffff}
	if out := ir.Exec(unsafe, env); out.Disposition != ir.Crashed {
		t.Fatalf("unsafe counter at max: %+v, want crash", out)
	}
	// The saturating variant survives the same state.
	safe := mustBuild(t, Counter, "SATURATE")
	env2 := &ir.ExecEnv{Pkt: make([]byte, 20), Meta: map[string]bv.V{},
		State: ir.State{"count": map[uint64]uint64{0: 0xffffffff}}}
	if out := ir.Exec(safe, env2); out.Disposition != ir.Emitted {
		t.Fatalf("saturating counter at max: %+v", out)
	}
	if got := env2.State.Read(safe.States[0], 0); got != 0xffffffff {
		t.Errorf("saturating counter moved past max: %d", got)
	}
}

func TestNetFlowCountsPerFlow(t *testing.T) {
	p := mustBuild(t, NetFlow, "16")
	env := &ir.ExecEnv{Meta: map[string]bv.V{packet.MetaHeaderOffset: bv.New(32, 14)}, State: ir.NewState()}
	flowA := validIPv4(t, 9, packet.IP4(2, 2, 2, 2), nil)
	flowB := validIPv4(t, 9, packet.IP4(3, 3, 3, 3), nil)
	for i := 0; i < 3; i++ {
		env.Pkt = append([]byte{}, flowA.Data...)
		ir.Exec(p, env)
	}
	env.Pkt = append([]byte{}, flowB.Data...)
	ir.Exec(p, env)
	if n := len(env.State["flows"]); n != 2 {
		t.Fatalf("flow table has %d entries, want 2", n)
	}
	var counts []uint64
	for _, v := range env.State["flows"] {
		counts = append(counts, v)
	}
	if !(counts[0] == 3 && counts[1] == 1 || counts[0] == 1 && counts[1] == 3) {
		t.Errorf("flow counts = %v, want {3,1}", counts)
	}
}

func TestIPRewriterRewritesAndChecksums(t *testing.T) {
	p := mustBuild(t, IPRewriter, "SNAT 100.64.0.1")
	f := func(a, b2, c, d byte) bool {
		buf := validIPv4(t, 20, packet.IP4(9, 9, 9, 9), nil)
		ip, _ := packet.IPv4At(buf.Data, packet.EthernetHeaderLen)
		ip.SetSrc(packet.IP4(a, b2, c, d))
		ck, _ := ip.ComputeChecksum()
		ip.SetChecksum(ck)
		out, env := exec(t, p, buf.Data, packet.EthernetHeaderLen)
		if out.Disposition != ir.Emitted {
			return false
		}
		got, err := packet.IPv4At(env.Pkt, packet.EthernetHeaderLen)
		if err != nil || got.Src() != packet.IP4(100, 64, 0, 1) {
			return false
		}
		want, err := got.ComputeChecksum()
		return err == nil && got.Checksum() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestToyElementsMatchPaperFig2(t *testing.T) {
	e1 := mustBuild(t, ToyE1, "")
	e2 := mustBuild(t, ToyE2, "")
	// E2 alone crashes on a negative first byte (segment e3)...
	out, _ := exec(t, e2, []byte{0x80, 0}, 0)
	if out.Disposition != ir.Crashed {
		t.Fatalf("E2 alone on negative input: %+v, want crash", out)
	}
	// ...but E1 clamps negatives, so E1;E2 never crashes.
	f := func(b0, b1 byte) bool {
		env := &ir.ExecEnv{Pkt: []byte{b0, b1}, Meta: map[string]bv.V{}, State: ir.NewState()}
		if out := ir.Exec(e1, env); out.Disposition != ir.Emitted {
			return false
		}
		out := ir.Exec(e2, env)
		return out.Disposition == ir.Emitted
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnsafeAndFixedReader(t *testing.T) {
	unsafe := mustBuild(t, UnsafeReader, "16")
	fixed := mustBuild(t, FixedReader, "16")
	short := make([]byte, 10)
	if out, _ := exec(t, unsafe, short, 0); out.Disposition != ir.Crashed {
		t.Errorf("UnsafeReader on short packet: %+v, want crash", out)
	}
	if out, _ := exec(t, fixed, short, 0); out.Disposition != ir.Emitted {
		t.Errorf("FixedReader on short packet: %+v, want emit", out)
	}
	long := make([]byte, 64)
	if out, _ := exec(t, unsafe, long, 0); out.Disposition != ir.Emitted {
		t.Errorf("UnsafeReader on long packet: %+v", out)
	}
}

func TestConfigParsers(t *testing.T) {
	if _, err := parseIP4("10.0.0"); err == nil {
		t.Error("bad IP accepted")
	}
	if _, err := parseCIDR("10.0.0.0/33"); err == nil {
		t.Error("bad prefix length accepted")
	}
	c, err := parseCIDR("10.0.0.55/8")
	if err != nil {
		t.Fatal(err)
	}
	if c.Addr != packet.IP4(10, 0, 0, 0) {
		t.Errorf("host bits not normalized: %s", c)
	}
	if _, err := parseMAC("aa:bb:cc"); err == nil {
		t.Error("bad MAC accepted")
	}
	if _, err := parseClassifier("12:0800"); err == nil {
		t.Error("bad classifier test accepted")
	}
	if _, err := parseClassifier("12/08%f"); err == nil {
		t.Error("odd-length mask accepted")
	}
	if _, err := parseFilterRules("permit all"); err == nil {
		t.Error("bad filter action accepted")
	}
	if _, _, err := parseRoutes("10.0.0.0/8"); err == nil {
		t.Error("route without port accepted")
	}
}

func TestRegistryHasAllClasses(t *testing.T) {
	r := Default()
	want := []string{"Classifier", "CheckIPHeader", "DecIPTTL", "IPOptions",
		"LookupIPRoute", "Strip", "EtherEncap", "Counter", "NetFlow",
		"IPRewriter", "IPFilter", "ToyE1", "ToyE2", "InfiniteSource", "Discard",
		"TokenBucket", "LeakyNAT"}
	have := map[string]bool{}
	for _, c := range r.Classes() {
		have[c] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %s", w)
		}
	}
	// Constructors run through the registry.
	if _, err := r.Make("s", "Strip", "14"); err != nil {
		t.Errorf("Make Strip: %v", err)
	}
	if _, err := r.Make("x", "NoSuch", ""); err == nil {
		t.Error("unknown class accepted")
	}
}

// ---- concrete execution of the stateful elements ----
//
// The stateful elements were originally only covered symbolically (the
// A3/S1 experiments); these tests drive the same IR through the
// concrete interpreter, including the state boundaries the verifier
// reasons about.

// statefulEnv is exec() with a caller-controlled persistent state, for
// driving multiple packets through one element instance.
func statefulEnv(data []byte, hoff uint32, st ir.State) *ir.ExecEnv {
	return &ir.ExecEnv{
		Pkt:   append([]byte{}, data...),
		Meta:  map[string]bv.V{packet.MetaHeaderOffset: bv.New(32, uint64(hoff))},
		State: st,
	}
}

func TestCounterSaturatesAtBoundary(t *testing.T) {
	p := mustBuild(t, Counter, "SATURATE")
	d, _ := p.StateDeclByName("count")
	st := ir.NewState()
	// One below the boundary: increments to the maximum.
	st.Write(d, 0, 0xfffffffe)
	if out := ir.Exec(p, statefulEnv(make([]byte, 14), 0, st)); out.Disposition != ir.Emitted {
		t.Fatalf("below boundary: %+v", out)
	}
	if got := st.Read(d, 0); got != 0xffffffff {
		t.Fatalf("count = %#x, want 0xffffffff", got)
	}
	// At the boundary: saturates, does not wrap, does not crash.
	if out := ir.Exec(p, statefulEnv(make([]byte, 14), 0, st)); out.Disposition != ir.Emitted {
		t.Fatalf("at boundary: %+v", out)
	}
	if got := st.Read(d, 0); got != 0xffffffff {
		t.Fatalf("count after saturation = %#x, want 0xffffffff", got)
	}
}

func TestCounterOverflowAssertsAtBoundary(t *testing.T) {
	p := mustBuild(t, Counter, "")
	d, _ := p.StateDeclByName("count")
	st := ir.NewState()
	st.Write(d, 0, 0xfffffffe)
	if out := ir.Exec(p, statefulEnv(make([]byte, 14), 0, st)); out.Disposition != ir.Emitted {
		t.Fatalf("one below the overflow must still pass: %+v", out)
	}
	out := ir.Exec(p, statefulEnv(make([]byte, 14), 0, st))
	if out.Disposition != ir.Crashed || out.Crash.Kind != ir.CrashAssert {
		t.Fatalf("at the boundary: %+v, want assertion crash", out)
	}
}

func TestNetFlowZeroPayloadDatagram(t *testing.T) {
	p := mustBuild(t, NetFlow, "")
	// A minimal valid IPv4 datagram with no transport header at all: the
	// guarded port read must be skipped, not fault.
	buf, err := packet.BuildIPv4(packet.IPv4Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		TTL: 64, Protocol: packet.ProtoUDP,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := ir.NewState()
	out := ir.Exec(p, statefulEnv(buf.Data, 14, st))
	if out.Disposition != ir.Emitted {
		t.Fatalf("zero-payload datagram: %+v, want emitted", out)
	}
	// The flow was still counted, under the ports=0 key.
	d, _ := p.StateDeclByName("flows")
	key := uint64(packet.IP4(10, 0, 0, 1) ^ packet.IP4(10, 0, 0, 2) ^ uint32(packet.ProtoUDP))
	if got := st.Read(d, key); got != 1 {
		t.Fatalf("flow count = %d, want 1 (key %#x)", got, key)
	}
}

func TestTokenBucketConcreteBurst(t *testing.T) {
	p := mustBuild(t, TokenBucket, "2")
	st := ir.NewState()
	wantPorts := []int{0, 0, 1, 1}
	for i, want := range wantPorts {
		out := ir.Exec(p, statefulEnv(make([]byte, 14), 0, st))
		if out.Disposition != ir.Emitted || out.Port != want {
			t.Fatalf("packet %d: %+v, want emit on port %d", i, out, want)
		}
	}
}

func TestLeakyNATEvictsAndReassigns(t *testing.T) {
	p := mustBuild(t, LeakyNAT, "100.64.0.0")
	flowA := packet.IP4(10, 0, 0, 1)
	flowB := packet.IP4(10, 9, 9, 9)
	mk := func(src uint32) []byte {
		buf, err := packet.BuildIPv4(packet.IPv4Spec{
			SrcIP: src, DstIP: packet.IP4(192, 168, 0, 1),
			TTL: 64, Protocol: packet.ProtoUDP,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Data
	}
	st := ir.NewState()
	run := func(src uint32) uint32 {
		env := statefulEnv(mk(src), 14, st)
		out := ir.Exec(p, env)
		if out.Disposition != ir.Emitted {
			t.Fatalf("src %#x: %+v", src, out)
		}
		return packet.IP4(env.Pkt[26], env.Pkt[27], env.Pkt[28], env.Pkt[29])
	}
	a1 := run(flowA)
	b1 := run(flowB)
	a2 := run(flowA)
	if a1 == a2 {
		t.Fatalf("flow A mapping stable (%#x) despite eviction — the designed bug is gone", a1)
	}
	if b1 == a1 || b1 == a2 {
		t.Fatalf("distinct translations expected, got a1=%#x b1=%#x a2=%#x", a1, b1, a2)
	}
	// Without interleaving traffic the mapping IS stable (the bug needs
	// three packets).
	st2 := ir.NewState()
	stP := func(src uint32) uint32 {
		env := statefulEnv(mk(src), 14, st2)
		ir.Exec(p, env)
		return packet.IP4(env.Pkt[26], env.Pkt[27], env.Pkt[28], env.Pkt[29])
	}
	if x, y := stP(flowA), stP(flowA); x != y {
		t.Fatalf("back-to-back same-flow packets translated differently: %#x vs %#x", x, y)
	}
}
