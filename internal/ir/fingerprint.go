package ir

// Program fingerprinting: a deterministic content hash of a compiled
// program, covering every field that affects its semantics — the
// statement tree, register widths, state and table declarations, port
// counts, and metadata slots. The fingerprint is the canonical identity
// of an element body across processes: the verifier keys its Step-1
// summary cache by it, and the on-disk summary store (DESIGN.md §7)
// addresses artifacts with it. Two programs share a fingerprint iff a
// summary computed for one is valid for the other; unlike the old
// class+config string key it cannot collide across registries that bind
// the same class name to different constructors.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"sort"
)

// Fingerprint is a 256-bit content hash of a Program.
type Fingerprint [32]byte

// String returns the lowercase hex form, as used in store filenames and
// verdict records.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// ParseFingerprint parses the hex form produced by String.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil {
		return f, fmt.Errorf("ir: bad fingerprint %q: %w", s, err)
	}
	if len(b) != len(f) {
		return f, fmt.Errorf("ir: bad fingerprint %q: want %d hex bytes, got %d", s, len(f), len(b))
	}
	copy(f[:], b)
	return f, nil
}

// Fingerprint returns the program's content hash, computed once and
// cached. Programs are immutable after Build, so the cache is sound; it
// is safe for concurrent use.
func (p *Program) Fingerprint() Fingerprint {
	p.fpOnce.Do(func() { p.fp = fingerprint(p, false) })
	return p.fp
}

// SummaryFingerprint is the program's identity as Step 1 sees it: the
// content hash with each static table reduced to its name, widths,
// default and sorted value set. Symbolic execution reads a table only
// through its values (StaticTable.Values), so two programs that differ
// only in their ranges have the same summary, and a route edit that
// keeps the value set keeps every summary key. Computed once and
// cached, like Fingerprint. A program without tables has nothing to
// reduce: its summary fingerprint is its fingerprint, so a submission
// pays the second hash only for its table elements.
func (p *Program) SummaryFingerprint() Fingerprint {
	if len(p.Tables) == 0 {
		return p.Fingerprint()
	}
	p.sfpOnce.Do(func() { p.sfp = fingerprint(p, true) })
	return p.sfp
}

// Hasher exposes the fingerprint serialization discipline to the other
// layers that derive fingerprints from this one (pipeline identity in
// internal/click, summary-store keys in internal/verify): every record
// goes length-prefixed into one SHA-256, so the collision guarantees
// are shared rather than re-implemented per caller.
type Hasher struct{ w fpWriter }

// NewHasher starts a fingerprint computation under the given format
// label (a versioned string like "vsd/click/v1"; bump it on any
// encoding change).
func NewHasher(format string) *Hasher {
	h := &Hasher{w: fpWriter{h: sha256.New()}}
	h.w.str(format)
	return h
}

// U64 appends an integer record.
func (h *Hasher) U64(v uint64) { h.w.u64(v) }

// Str appends a length-prefixed string record.
func (h *Hasher) Str(s string) { h.w.str(s) }

// Fingerprint mixes another fingerprint in as a fixed-width record.
func (h *Hasher) Fingerprint(fp Fingerprint) { h.w.h.Write(fp[:]) }

// Sum finalizes the computation.
func (h *Hasher) Sum() Fingerprint {
	var f Fingerprint
	h.w.h.Sum(f[:0])
	return f
}

// fpWriter serializes canonical records into a running hash. Every
// variable-length field is length-prefixed so distinct programs cannot
// collide by field concatenation.
type fpWriter struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64]byte
}

func (w *fpWriter) u64(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.h.Write(w.buf[:n])
}

func (w *fpWriter) i64(v int64) { w.u64(uint64(v)) }

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

func fingerprint(p *Program, valuesOnly bool) Fingerprint {
	w := &fpWriter{h: sha256.New()}
	// Format versions: bump on any encoding change.
	if valuesOnly {
		w.str("vsd/ir/values/v1")
	} else {
		w.str("vsd/ir/v1")
	}
	w.str(p.Name)
	w.u64(uint64(p.NumIn))
	w.u64(uint64(p.NumOut))
	w.u64(uint64(len(p.RegWidths)))
	for _, rw := range p.RegWidths {
		w.u64(uint64(rw))
	}
	w.u64(uint64(len(p.States)))
	for _, s := range p.States {
		w.str(s.Name)
		w.u64(uint64(s.KeyW))
		w.u64(uint64(s.ValW))
		w.u64(s.Default)
		w.u64(uint64(s.Capacity))
	}
	w.u64(uint64(len(p.Tables)))
	for _, t := range p.Tables {
		w.str(t.Name)
		w.u64(uint64(t.KeyW))
		w.u64(uint64(t.ValW))
		w.u64(t.Default)
		if valuesOnly {
			vals := t.Values()
			slices.Sort(vals)
			w.u64(uint64(len(vals)))
			for _, v := range vals {
				w.u64(v)
			}
			continue
		}
		w.u64(uint64(len(t.Entries)))
		for _, e := range t.Entries {
			w.u64(e.Lo)
			w.u64(e.Hi)
			w.u64(e.Val)
		}
	}
	slots := make([]string, 0, len(p.MetaSlots))
	for s := range p.MetaSlots {
		slots = append(slots, s)
	}
	sort.Strings(slots)
	w.u64(uint64(len(slots)))
	for _, s := range slots {
		w.str(s)
		w.u64(uint64(p.MetaSlots[s]))
	}
	fpBlock(w, p.Body)
	var f Fingerprint
	w.h.Sum(f[:0])
	return f
}

// Statement tags for the fingerprint stream. The values are part of the
// format: renumbering them changes every fingerprint (bump the version
// string instead of reusing a tag).
const (
	fpConst uint64 = iota + 1
	fpBin
	fpNot
	fpCast
	fpSel
	fpLoadPkt
	fpStorePkt
	fpPktLen
	fpMetaLoad
	fpMetaStore
	fpStateRead
	fpStateWrite
	fpStaticLookup
	fpAssert
	fpIf
	fpLoop
	fpBreak
	fpEmit
	fpDrop
)

func fpBlock(w *fpWriter, body []Stmt) {
	w.u64(uint64(len(body)))
	for _, s := range body {
		fpStmt(w, s)
	}
}

func fpStmt(w *fpWriter, s Stmt) {
	switch st := s.(type) {
	case ConstStmt:
		w.u64(fpConst)
		w.i64(int64(st.Dst))
		w.u64(uint64(st.Val.W))
		w.u64(st.Val.U)
	case BinStmt:
		w.u64(fpBin)
		w.u64(uint64(st.Op))
		w.i64(int64(st.Dst))
		w.i64(int64(st.A))
		w.i64(int64(st.B))
	case NotStmt:
		w.u64(fpNot)
		w.i64(int64(st.Dst))
		w.i64(int64(st.A))
	case CastStmt:
		w.u64(fpCast)
		w.u64(uint64(st.Kind))
		w.i64(int64(st.Dst))
		w.i64(int64(st.A))
	case SelStmt:
		w.u64(fpSel)
		w.i64(int64(st.Dst))
		w.i64(int64(st.Cond))
		w.i64(int64(st.A))
		w.i64(int64(st.B))
	case LoadPktStmt:
		w.u64(fpLoadPkt)
		w.i64(int64(st.Dst))
		w.i64(int64(st.Off))
		w.u64(uint64(st.N))
	case StorePktStmt:
		w.u64(fpStorePkt)
		w.i64(int64(st.Off))
		w.i64(int64(st.Src))
		w.u64(uint64(st.N))
	case PktLenStmt:
		w.u64(fpPktLen)
		w.i64(int64(st.Dst))
	case MetaLoadStmt:
		w.u64(fpMetaLoad)
		w.i64(int64(st.Dst))
		w.str(st.Slot)
	case MetaStoreStmt:
		w.u64(fpMetaStore)
		w.str(st.Slot)
		w.i64(int64(st.Src))
	case StateReadStmt:
		w.u64(fpStateRead)
		w.i64(int64(st.Dst))
		w.str(st.Store)
		w.i64(int64(st.Key))
	case StateWriteStmt:
		w.u64(fpStateWrite)
		w.str(st.Store)
		w.i64(int64(st.Key))
		w.i64(int64(st.Val))
	case StaticLookupStmt:
		w.u64(fpStaticLookup)
		w.i64(int64(st.Dst))
		w.str(st.Table)
		w.i64(int64(st.Key))
	case AssertStmt:
		w.u64(fpAssert)
		w.i64(int64(st.Cond))
		w.str(st.Msg)
	case IfStmt:
		w.u64(fpIf)
		w.i64(int64(st.Cond))
		fpBlock(w, st.Then)
		fpBlock(w, st.Else)
	case LoopStmt:
		w.u64(fpLoop)
		w.u64(uint64(st.Bound))
		fpBlock(w, st.Body)
	case BreakStmt:
		w.u64(fpBreak)
	case EmitStmt:
		w.u64(fpEmit)
		w.u64(uint64(st.Port))
	case DropStmt:
		w.u64(fpDrop)
	default:
		panic(fmt.Sprintf("ir: unknown statement %T in fingerprint", s))
	}
}
