// Package ir defines the element intermediate representation: the small
// imperative language in which every packet-processing element of this
// repository is written.
//
// The IR plays the role Click's C++ element code plays in the paper. It
// is executed twice, by two different engines over the same Program
// value:
//
//   - internal/dataplane interprets it concretely to forward real packets
//     (see Exec in interp.go);
//   - internal/symbex executes it symbolically to enumerate segments —
//     complete paths through one element — with their path constraints
//     and symbolic effects.
//
// Verifying the very artifact that forwards packets is the point of the
// paper, so the IR is deliberately restricted to the shapes the paper's
// pipeline structure permits:
//
//   - structured control flow only (If / Loop / Break, no goto), which is
//     what makes loop decomposition into "mini-elements" well-defined;
//   - packet access through bounds-checked loads and stores (an
//     out-of-bounds access is a crash, one of the verified properties);
//   - private state only through named key/value stores (StateRead /
//     StateWrite), the shape the paper's data-structure modeling needs;
//   - static state only through read-only range tables (StaticLookup),
//     matching the paper's observation that forwarding tables can be
//     compiled to pre-allocated array chains.
package ir

import (
	"fmt"
	"sort"
	"sync"

	"vsd/internal/bv"
)

// Stmt is a statement of the element IR. The concrete statement types
// below form a closed set; both interpreters switch exhaustively on it.
type Stmt interface{ stmt() }

// Reg names a register of a Program. Registers are typed (fixed width)
// mutable locals; they do not persist across packets.
type Reg int32

// NoReg is the absent-register sentinel.
const NoReg Reg = -1

// BinOp enumerates the binary operators of the IR. The set mirrors
// expr.Op so symbolic execution is a direct mapping.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	UDiv // implicit divide-by-zero crash check
	URem // implicit divide-by-zero crash check
	And
	Or
	Xor
	Shl
	LShr
	AShr
	Eq
	Ne
	Ult
	Ule
	Slt
	Sle
)

var binOpNames = [...]string{
	Add: "add", Sub: "sub", Mul: "mul", UDiv: "udiv", URem: "urem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", LShr: "lshr", AShr: "ashr",
	Eq: "eq", Ne: "ne", Ult: "ult", Ule: "ule", Slt: "slt", Sle: "sle",
}

func (o BinOp) String() string { return binOpNames[o] }

// IsCompare reports whether o yields a 1-bit result.
func (o BinOp) IsCompare() bool { return o >= Eq }

// ---- statements ----

// ConstStmt sets Dst to a constant.
type ConstStmt struct {
	Dst Reg
	Val bv.V
}

// BinStmt sets Dst to Op(A, B). UDiv and URem crash on a zero divisor.
type BinStmt struct {
	Op   BinOp
	Dst  Reg
	A, B Reg
}

// NotStmt sets Dst to the bitwise complement of A.
type NotStmt struct{ Dst, A Reg }

// CastStmt converts A to Dst's width. Kind selects zero-extension,
// sign-extension, or truncation; the builder checks width compatibility.
type CastStmt struct {
	Kind CastKind
	Dst  Reg
	A    Reg
}

// CastKind selects the conversion of a CastStmt.
type CastKind uint8

// Cast kinds.
const (
	ZExt CastKind = iota
	SExt
	Trunc
)

// SelStmt sets Dst to A if Cond (1-bit) is true, else B.
type SelStmt struct {
	Dst  Reg
	Cond Reg
	A, B Reg
}

// LoadPktStmt reads N bytes (1, 2, or 4) at byte offset Off from the
// packet, big-endian, into Dst (width 8·N). Reading past the packet
// length is a crash (CrashOOB).
type LoadPktStmt struct {
	Dst Reg
	Off Reg // 32-bit byte offset
	N   int
}

// StorePktStmt writes the low 8·N bits of Src at byte offset Off,
// big-endian. Writing past the packet length is a crash (CrashOOB).
type StorePktStmt struct {
	Off Reg // 32-bit byte offset
	Src Reg
	N   int
}

// PktLenStmt sets Dst (32-bit) to the packet length in bytes.
type PktLenStmt struct{ Dst Reg }

// MetaLoadStmt reads the named metadata annotation into Dst. Annotation
// widths are fixed by convention (see packet.MetaWidth).
type MetaLoadStmt struct {
	Dst  Reg
	Slot string
}

// MetaStoreStmt writes Src to the named metadata annotation.
type MetaStoreStmt struct {
	Slot string
	Src  Reg
}

// StateReadStmt reads private state: Dst = store[Key], or the store's
// default value when the key is absent. Key and Dst widths are fixed
// per store (see StateDecl).
type StateReadStmt struct {
	Dst   Reg
	Store string
	Key   Reg
}

// StateWriteStmt writes private state: store[Key] = Val.
type StateWriteStmt struct {
	Store string
	Key   Reg
	Val   Reg
}

// StaticLookupStmt performs a read-only lookup in a named static range
// table: Dst = table value whose [Lo, Hi] key range contains Key, or the
// table default.
type StaticLookupStmt struct {
	Dst   Reg
	Table string
	Key   Reg
}

// AssertStmt crashes the element (CrashAssert) when Cond (1-bit) is
// false.
type AssertStmt struct {
	Cond Reg
	Msg  string
}

// IfStmt executes Then when Cond (1-bit) is true, else Else (which may
// be empty).
type IfStmt struct {
	Cond Reg
	Then []Stmt
	Else []Stmt
}

// LoopStmt executes Body up to Bound times. A BreakStmt in the body
// leaves the loop early. Bound must be a compile-time constant: packet
// processing code always has a static iteration bound (e.g. the maximum
// number of IP options), which is what makes the bounded-execution
// property meaningful.
type LoopStmt struct {
	Bound int
	Body  []Stmt
}

// BreakStmt exits the innermost enclosing loop.
type BreakStmt struct{}

// EmitStmt ends element execution, transferring packet ownership out of
// output port Port.
type EmitStmt struct{ Port int }

// DropStmt ends element execution, dropping the packet.
type DropStmt struct{}

func (ConstStmt) stmt()        {}
func (BinStmt) stmt()          {}
func (NotStmt) stmt()          {}
func (CastStmt) stmt()         {}
func (SelStmt) stmt()          {}
func (LoadPktStmt) stmt()      {}
func (StorePktStmt) stmt()     {}
func (PktLenStmt) stmt()       {}
func (MetaLoadStmt) stmt()     {}
func (MetaStoreStmt) stmt()    {}
func (StateReadStmt) stmt()    {}
func (StateWriteStmt) stmt()   {}
func (StaticLookupStmt) stmt() {}
func (AssertStmt) stmt()       {}
func (IfStmt) stmt()           {}
func (LoopStmt) stmt()         {}
func (BreakStmt) stmt()        {}
func (EmitStmt) stmt()         {}
func (DropStmt) stmt()         {}

// ---- declarations ----

// StateDecl declares a private key/value store.
type StateDecl struct {
	Name    string
	KeyW    bv.Width
	ValW    bv.Width
	Default uint64 // value returned for absent keys
	// Capacity bounds the number of live keys; a write that would
	// exceed it behaves per the element's code (stores are
	// pre-allocated in real dataplanes). 0 means unbounded.
	Capacity int
}

// RangeEntry is one [Lo, Hi] -> Val row of a static table.
type RangeEntry struct {
	Lo, Hi uint64
	Val    uint64
}

// StaticTable is an immutable range-compressed lookup table: the static
// state of the paper (forwarding tables, filter tables). Entries must be
// sorted and disjoint; Lookup returns Default when no range contains the
// key. Symbolic execution sees it only through its value set: a lookup
// on a symbolic key forks one path per value (Values), not per range or
// entry, so the ranges stay out of every summary (DESIGN.md §3.2).
type StaticTable struct {
	Name    string
	KeyW    bv.Width
	ValW    bv.Width
	Entries []RangeEntry
	Default uint64
}

// Lookup returns the value for key and whether a range matched.
func (t *StaticTable) Lookup(key uint64) (uint64, bool) {
	lo, hi := 0, len(t.Entries)
	for lo < hi {
		mid := (lo + hi) / 2
		e := t.Entries[mid]
		switch {
		case key < e.Lo:
			hi = mid
		case key > e.Hi:
			lo = mid + 1
		default:
			return e.Val, true
		}
	}
	return t.Default, false
}

// Values returns the values a lookup can return, each once, in order of
// first appearance over the key space's ranges, with Default last when
// some key falls in no range.
func (t *StaticTable) Values() []uint64 {
	var out []uint64
	seen := map[uint64]bool{}
	add := func(v uint64) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, e := range t.Entries {
		add(e.Val)
	}
	if !t.covers() {
		add(t.Default)
	}
	return out
}

// covers reports whether the entries leave no key of the key width
// uncovered (they are sorted and disjoint, so adjacency suffices).
func (t *StaticTable) covers() bool {
	next := uint64(0)
	for _, e := range t.Entries {
		if e.Lo != next {
			return false
		}
		if e.Hi == t.KeyW.Mask() {
			return true
		}
		next = e.Hi + 1
	}
	return false
}

// KeysOf returns the keys that look up val, as sorted disjoint [Lo, Hi]
// intervals with adjacent ones merged (Val is unset): the ranges holding
// val, and the uncovered gaps when val is the default.
func (t *StaticTable) KeysOf(val uint64) []RangeEntry {
	var out []RangeEntry
	add := func(lo, hi uint64) {
		if n := len(out); n > 0 && out[n-1].Hi+1 == lo {
			out[n-1].Hi = hi
			return
		}
		out = append(out, RangeEntry{Lo: lo, Hi: hi})
	}
	next, done := uint64(0), false
	for _, e := range t.Entries {
		if val == t.Default && e.Lo > next {
			add(next, e.Lo-1)
		}
		if e.Val == val {
			add(e.Lo, e.Hi)
		}
		if e.Hi == t.KeyW.Mask() {
			done = true
			break
		}
		next = e.Hi + 1
	}
	if val == t.Default && !done {
		add(next, t.KeyW.Mask())
	}
	return out
}

// Validate checks that entries are sorted, disjoint, and within the key
// width.
func (t *StaticTable) Validate() error {
	mask := t.KeyW.Mask()
	var prevHi uint64
	for i, e := range t.Entries {
		if e.Lo > e.Hi {
			return fmt.Errorf("table %s: entry %d has Lo > Hi", t.Name, i)
		}
		if e.Hi > mask {
			return fmt.Errorf("table %s: entry %d exceeds key width", t.Name, i)
		}
		if e.Val > t.ValW.Mask() {
			return fmt.Errorf("table %s: entry %d value exceeds value width", t.Name, i)
		}
		if i > 0 && e.Lo <= prevHi {
			return fmt.Errorf("table %s: entry %d overlaps or is unsorted", t.Name, i)
		}
		prevHi = e.Hi
	}
	return nil
}

// Program is a complete element body: a register file, declarations, and
// a statement list. Programs are immutable after Build and are always
// handled by pointer (the cached fingerprint below must not be copied).
type Program struct {
	Name      string
	NumIn     int // input ports (for documentation; the body is per-packet)
	NumOut    int // output ports; Emit must stay below this
	RegWidths []bv.Width
	States    []StateDecl
	Tables    []*StaticTable
	Body      []Stmt
	MetaSlots map[string]bv.Width // metadata annotations referenced

	// fp caches Fingerprint() and sfp SummaryFingerprint(); see
	// fingerprint.go.
	fpOnce  sync.Once
	fp      Fingerprint
	sfpOnce sync.Once
	sfp     Fingerprint
}

// RegWidth returns the declared width of r.
func (p *Program) RegWidth(r Reg) bv.Width { return p.RegWidths[r] }

// StateDeclByName returns the declaration of the named store.
func (p *Program) StateDeclByName(name string) (StateDecl, bool) {
	for _, s := range p.States {
		if s.Name == name {
			return s, true
		}
	}
	return StateDecl{}, false
}

// TableByName returns the named static table.
func (p *Program) TableByName(name string) (*StaticTable, bool) {
	for _, t := range p.Tables {
		if t.Name == name {
			return t, true
		}
	}
	return nil, false
}

// ---- compile-oriented accessors ----
//
// The bytecode compiler (internal/dataplane/compile) resolves every
// name-keyed reference of the IR — state stores, static tables,
// metadata slots — to a dense integer index at compile time, so the VM
// never performs a string lookup on the hot path. The accessors below
// define those bindings once, here, so the compiler and any future
// backend agree on the numbering: state and table indices are the
// declaration order (the order symbolic execution and the fingerprint
// serialize them in), and metadata slots are sorted by name.

// StateIndex returns the declaration-order index of the named store, or
// -1 when the program declares no such store. The index is stable: it
// is the position in p.States, the same order Fingerprint hashes.
func (p *Program) StateIndex(name string) int {
	for i, s := range p.States {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// TableIndex returns the declaration-order index of the named static
// table, or -1 when the program declares no such table.
func (p *Program) TableIndex(name string) int {
	for i, t := range p.Tables {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// SortedMetaSlots returns the metadata slot names the program
// references, sorted. Sorting makes slot numbering deterministic for
// any consumer that assigns indices by iteration order.
func (p *Program) SortedMetaSlots() []string {
	out := make([]string, 0, len(p.MetaSlots))
	for s := range p.MetaSlots {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// NumLoops returns the number of static LoopStmt nodes in the body. The
// compiler allocates one hidden iteration-counter register per loop.
func (p *Program) NumLoops() int { return countLoops(p.Body) }

func countLoops(body []Stmt) int {
	n := 0
	for _, s := range body {
		switch st := s.(type) {
		case IfStmt:
			n += countLoops(st.Then) + countLoops(st.Else)
		case LoopStmt:
			n += 1 + countLoops(st.Body)
		}
	}
	return n
}

// MaxStmts returns an upper bound on the number of dynamic statements a
// single execution of the program can perform, with loops fully
// expanded. It is finite by construction (static loop bounds) — the
// structural guarantee behind the bounded-execution property.
func (p *Program) MaxStmts() int64 { return maxStmts(p.Body) }

func maxStmts(body []Stmt) int64 {
	var n int64
	for _, s := range body {
		switch st := s.(type) {
		case IfStmt:
			t, e := maxStmts(st.Then), maxStmts(st.Else)
			if e > t {
				t = e
			}
			n += 1 + t
		case LoopStmt:
			n += 1 + int64(st.Bound)*(1+maxStmts(st.Body))
		default:
			n++
		}
	}
	return n
}
