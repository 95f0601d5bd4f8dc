package symbex

// Summary artifacts: the serializable form of a Step-1 result
// (DESIGN.md §7). A Summary is engine-independent — it carries only the
// segment set (path constraints, packet store chains, metadata, state
// access logs, table-lookup logs, crash records) plus the exactness flag, all expressed in
// the hash-consed expr universe. EncodeSummary/DecodeSummary are the
// stable binary codec behind the verifier's on-disk summary store:
// decoding re-interns every term through the expr constructors, so a
// loaded summary composes exactly like a freshly computed one.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"vsd/internal/expr"
	"vsd/internal/ir"
)

// Summary is the complete, portable Step-1 artifact for one element
// program: its segment set and whether loop-state merging made the
// per-segment step counts upper bounds rather than exact values.
type Summary struct {
	Segments []*Segment
	Merged   bool
	// Digest is the SHA-256 of the summary's encoding when a store has
	// just read or written that encoding, zero otherwise. Decoding and
	// re-encoding give back the same bytes, so it always equals the
	// digest of EncodeSummary(s).
	Digest ir.Fingerprint
}

// summaryMagic versions the segment-table layout; the expr record
// stream is versioned separately by its own tags. v2 added the
// access-order Seq field to state reads and writes (sequence execution
// needs the interleaving); v3 added the table-lookup log. Older
// artifacts fail the magic check and decode as store misses, which
// re-summarizes — exactly the invalidation the format change requires.
const summaryMagic = "vsdsum3\n"

// EncodeSummary serializes s into a self-contained byte stream:
// the magic, one shared expr/array record stream, and the segment
// table referencing it by node index.
func EncodeSummary(s *Summary) []byte {
	enc := expr.NewEncoder()
	var seg []byte
	u := func(v uint64) { seg = binary.AppendUvarint(seg, v) }
	str := func(v string) { u(uint64(len(v))); seg = append(seg, v...) }
	u(boolU(s.Merged))
	u(uint64(len(s.Segments)))
	for _, sg := range s.Segments {
		str(sg.Element)
		u(uint64(sg.Index))
		u(uint64(len(sg.Cond)))
		for _, c := range sg.Cond {
			u(enc.AddExpr(c))
		}
		u(enc.AddArray(sg.Pkt))
		slots := make([]string, 0, len(sg.Meta))
		for k := range sg.Meta {
			slots = append(slots, k)
		}
		sort.Strings(slots)
		u(uint64(len(slots)))
		for _, k := range slots {
			str(k)
			u(enc.AddExpr(sg.Meta[k]))
		}
		u(uint64(sg.Disposition))
		u(uint64(sg.Port))
		if sg.Crash != nil {
			u(1)
			u(uint64(sg.Crash.Kind))
			str(sg.Crash.Msg)
		} else {
			u(0)
		}
		u(uint64(sg.Steps))
		u(uint64(len(sg.Reads)))
		for _, rd := range sg.Reads {
			str(rd.Store)
			u(enc.AddExpr(rd.Key))
			u(enc.AddExpr(rd.Var))
			u(uint64(rd.Seq))
		}
		u(uint64(len(sg.Writes)))
		for _, wr := range sg.Writes {
			str(wr.Store)
			u(enc.AddExpr(wr.Key))
			u(enc.AddExpr(wr.Val))
			u(uint64(wr.Seq))
		}
		u(uint64(len(sg.Lookups)))
		for _, lk := range sg.Lookups {
			str(lk.Table)
			u(enc.AddExpr(lk.Key))
			u(lk.Val)
			if lk.Guard != nil {
				u(1)
				u(enc.AddExpr(lk.Guard))
			} else {
				u(0)
			}
		}
	}
	out := append([]byte{}, summaryMagic...)
	nodes := enc.Bytes()
	out = binary.AppendUvarint(out, uint64(len(nodes)))
	out = append(out, nodes...)
	return append(out, seg...)
}

func boolU(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// DecodeSummary parses an EncodeSummary stream, re-interning every term
// into the process's expression universe. Any malformation — truncation,
// unknown tags, out-of-range references, width violations — yields an
// error, never a panic: the store treats a failed decode as a cache miss
// and falls back to re-summarizing.
func DecodeSummary(data []byte) (s *Summary, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("symbex: corrupt summary: %v", p)
		}
	}()
	if len(data) < len(summaryMagic) || string(data[:len(summaryMagic)]) != summaryMagic {
		return nil, errors.New("symbex: not a summary artifact (bad magic)")
	}
	data = data[len(summaryMagic):]
	nodeLen, n := binary.Uvarint(data)
	if n <= 0 || nodeLen > uint64(len(data)-n) {
		return nil, errors.New("symbex: corrupt summary: truncated node stream")
	}
	data = data[n:]
	tab, rest, err := expr.DecodeTable(data[:nodeLen])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("symbex: corrupt summary: trailing bytes in node stream")
	}
	r := &sreader{data: data[nodeLen:], tab: tab}
	s = &Summary{Merged: r.u64() != 0}
	nSegs := r.u64()
	if r.err == nil && nSegs > uint64(len(r.data)) {
		return nil, errors.New("symbex: corrupt summary: segment count exceeds input")
	}
	for i := uint64(0); i < nSegs && r.err == nil; i++ {
		sg := &Segment{
			Element: r.str(),
			Index:   int(r.u64()),
		}
		nCond := r.u64()
		for j := uint64(0); j < nCond && r.err == nil; j++ {
			sg.Cond = append(sg.Cond, r.expr())
		}
		sg.Pkt = r.array()
		nMeta := r.u64()
		if nMeta > 0 && r.err == nil {
			sg.Meta = make(map[string]*expr.Expr, nMeta)
			for j := uint64(0); j < nMeta && r.err == nil; j++ {
				k := r.str()
				sg.Meta[k] = r.expr()
			}
		}
		disp := r.u64()
		if r.err == nil && disp > uint64(ir.Crashed) {
			r.err = fmt.Errorf("symbex: corrupt summary: bad disposition %d", disp)
		}
		sg.Disposition = ir.Disposition(disp)
		sg.Port = int(r.u64())
		if r.u64() != 0 {
			kind := r.u64()
			if r.err == nil && kind > uint64(ir.CrashOOB) {
				r.err = fmt.Errorf("symbex: corrupt summary: bad crash kind %d", kind)
			}
			sg.Crash = &CrashRecord{Kind: ir.CrashKind(kind), Msg: r.str()}
		}
		sg.Steps = int64(r.u64())
		nReads := r.u64()
		for j := uint64(0); j < nReads && r.err == nil; j++ {
			sg.Reads = append(sg.Reads, StateAccess{Store: r.str(), Key: r.expr(), Var: r.expr(), Seq: int(r.u64())})
		}
		nWrites := r.u64()
		for j := uint64(0); j < nWrites && r.err == nil; j++ {
			sg.Writes = append(sg.Writes, StateUpdate{Store: r.str(), Key: r.expr(), Val: r.expr(), Seq: int(r.u64())})
		}
		nLookups := r.u64()
		for j := uint64(0); j < nLookups && r.err == nil; j++ {
			lk := TableLookup{Table: r.str(), Key: r.expr(), Val: r.u64()}
			if r.u64() != 0 {
				lk.Guard = r.expr()
			}
			sg.Lookups = append(sg.Lookups, lk)
		}
		s.Segments = append(s.Segments, sg)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, errors.New("symbex: corrupt summary: trailing bytes")
	}
	return s, nil
}

// sreader decodes the segment table with error-once semantics.
type sreader struct {
	data []byte
	pos  int
	tab  *expr.Table
	err  error
}

func (r *sreader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.err = errors.New("symbex: corrupt summary: truncated varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *sreader) str() string {
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.pos) {
		r.err = errors.New("symbex: corrupt summary: truncated string")
		return ""
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *sreader) expr() *expr.Expr {
	id := r.u64()
	if r.err != nil {
		return nil
	}
	e, err := r.tab.Expr(id)
	if err != nil {
		r.err = err
		return nil
	}
	return e
}

func (r *sreader) array() *expr.Array {
	id := r.u64()
	if r.err != nil {
		return nil
	}
	a, err := r.tab.Array(id)
	if err != nil {
		r.err = err
		return nil
	}
	return a
}
