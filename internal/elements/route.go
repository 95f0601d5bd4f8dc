package elements

import (
	"fmt"
	"slices"
	"sort"

	"vsd/internal/ir"
	"vsd/internal/packet"
)

// routeEntry is one parsed route: prefix -> (gateway, output port).
type routeEntry struct {
	prefix cidr
	gw     uint32
	port   int
}

// noRouteSentinel marks "no matching route" in the compiled table value
// (port byte 0xff).
const noRouteSentinel = 0xff

// compileLPM turns a route list into disjoint [lo, hi] -> value ranges,
// longest prefix winning (the first of equal prefixes), with adjacent
// equal-valued ranges merged. The value packs gateway<<8 | port. The
// ranges serve the interpreter and the compiled dataplane; a symbolic
// lookup forks one path per distinct value (a (gateway, port) pair),
// however many routes or ranges hold it, so the verifier's work does not
// grow with the table.
//
// It sweeps the sorted prefixes once, O(n log n): two prefixes are
// either nested or disjoint, so the prefixes covering an address form a
// stack, outermost at the bottom, and its top is the longest match.
func compileLPM(routes []routeEntry) []ir.RangeEntry {
	// Outer prefixes first at each start, the first route of equal
	// prefixes before its duplicates.
	sorted := append([]routeEntry(nil), routes...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i].prefix, sorted[j].prefix
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		return a.Bits < b.Bits
	})
	// Elementary interval boundaries: each prefix [lo, hi] contributes
	// lo and hi+1.
	pts := []uint64{0}
	for _, r := range routes {
		lo, hi := r.prefix.Range()
		pts = append(pts, uint64(lo))
		if hi < ^uint32(0) {
			pts = append(pts, uint64(hi)+1)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	pts = slices.Compact(pts)
	var out []ir.RangeEntry
	var open []routeEntry
	next := 0
	for i, lo := range pts {
		for n := len(open); n > 0; n = len(open) {
			if _, hi := open[n-1].prefix.Range(); uint64(hi) >= lo {
				break
			}
			open = open[:n-1]
		}
		for ; next < len(sorted) && uint64(sorted[next].prefix.Addr) == lo; next++ {
			r := sorted[next]
			if n := len(open); n == 0 || open[n-1].prefix != r.prefix {
				open = append(open, r)
			}
		}
		hi := uint64(^uint32(0))
		if i+1 < len(pts) {
			hi = pts[i+1] - 1
		}
		val := uint64(noRouteSentinel)
		if n := len(open); n > 0 {
			val = uint64(open[n-1].gw)<<8 | uint64(open[n-1].port)
		}
		// Merge with the previous range when the value repeats.
		if n := len(out); n > 0 && out[n-1].Val == val && out[n-1].Hi+1 == lo {
			out[n-1].Hi = hi
			continue
		}
		out = append(out, ir.RangeEntry{Lo: lo, Hi: hi, Val: val})
	}
	// Drop sentinel ranges only if that leaves the table default to
	// cover them; keeping them explicit is simpler and equally compact.
	return out
}

// parseRoutes parses "CIDR [GW] PORT" entries, comma-separated, Click's
// LookupIPRoute flavor:
//
//	LookupIPRoute(10.0.0.0/8 1, 192.168.0.0/16 10.0.0.1 2, 0.0.0.0/0 0)
func parseRoutes(cfg string) ([]routeEntry, int, error) {
	args := splitArgs(cfg)
	if len(args) == 0 {
		return nil, 0, fmt.Errorf("LookupIPRoute wants at least one route")
	}
	var routes []routeEntry
	maxPort := 0
	for _, arg := range args {
		f := fields(arg)
		var r routeEntry
		var err error
		switch len(f) {
		case 2:
			r.prefix, err = parseCIDR(f[0])
			if err != nil {
				return nil, 0, err
			}
			p, err := parseUint(f[1], 250)
			if err != nil {
				return nil, 0, err
			}
			r.port = int(p)
		case 3:
			r.prefix, err = parseCIDR(f[0])
			if err != nil {
				return nil, 0, err
			}
			r.gw, err = parseIP4(f[1])
			if err != nil {
				return nil, 0, err
			}
			p, err := parseUint(f[2], 250)
			if err != nil {
				return nil, 0, err
			}
			r.port = int(p)
		default:
			return nil, 0, fmt.Errorf("bad route %q (want CIDR [GW] PORT)", arg)
		}
		if r.port > maxPort {
			maxPort = r.port
		}
		routes = append(routes, r)
	}
	return routes, maxPort, nil
}

// LookupIPRoute(CIDR [GW] PORT, ...) performs longest-prefix-match
// routing on the IPv4 destination address: the matched route's gateway
// is stored in the gw annotation and the packet leaves on the route's
// output port. Packets matching no route are dropped. The route table is
// static state, compiled to a range table at configuration time;
// verification sees it only through its value set (DESIGN.md §3.2).
func LookupIPRoute(cfg string) (*ir.Program, error) {
	routes, maxPort, err := parseRoutes(cfg)
	if err != nil {
		return nil, err
	}
	table := &ir.StaticTable{
		Name:    "routes",
		KeyW:    32,
		ValW:    64,
		Entries: compileLPM(routes),
		Default: noRouteSentinel,
	}
	b := ir.NewBuilder("LookupIPRoute", 1, maxPort+1)
	b.DeclareTable(table)
	hoff := b.MetaLoad(packet.MetaHeaderOffset, 32)
	dst := b.LoadPkt(b.BinC(ir.Add, hoff, 16), 4)
	val := b.StaticLookup("routes", b.ZExt(dst, 32))
	port := b.Trunc(val, 8)
	gw := b.Trunc(b.BinC(ir.LShr, val, 8), 32)
	b.MetaStore(packet.MetaGateway, gw)
	b.MetaStore(packet.MetaPort, port)
	for p := 0; p <= maxPort; p++ {
		b.If(b.BinC(ir.Eq, port, uint64(p)), func() { b.Emit(p) }, nil)
	}
	b.Drop() // no-route sentinel
	return b.Build()
}
