package verify

// Step-2 certificates (DESIGN.md §7.5). A walk with no extra input
// assumptions — CrashFreedom, BoundedInstructions, the sequence engine's
// terminal-path walk — decides one feasibility question per stitch
// obligation, and each answer is an exact SAT/UNSAT fact about a formula
// fixed by the pipeline, the packet-length bounds and the element
// summaries. So is each sequence extension of the crash-freedom
// induction, given its initial-state mode and its packets' terminal
// paths. A certificate records those answers (decisions only, never a
// model) under a key hashed from exactly those inputs, so a later walk
// or induction over the same inputs replays them instead of solving.
// The inputs see static tables only through their value sets (DESIGN.md
// §3.2), so neither do the keys: a route edit that keeps the value set
// keeps the certificate. The one table-dependent decision, whether the
// bound's attaining path survives the concrete tables (tables.go), is a
// leaf entry keyed by the concrete pipeline fingerprint when it needed
// the solver.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"vsd/internal/click"
	"vsd/internal/ir"
	"vsd/internal/symbex"
)

// certVersion tags certificate keys. The certificate encoding is
// versioned by it too: a format change bumps the tag, so old files are
// never read under new keys.
const certVersion = "vsd/cert/v3"

// Certificate is the decision table of one certificate key. Its stitch
// entries record, for every recorded stitch obligation, identified by
// its path of (element index, segment index) steps from the pipeline
// entry, whether the stitched constraint is feasible. Its sequence
// entries record the same for every sequence extension of the
// crash-freedom induction (induction.go), identified by the initial
// state mode and the paths of the sequence's packets (seqKey). Its leaf
// entries record the table check of bound candidates (leafKey). It also
// records the summary segment count of each element, the range every
// path must stay inside. Its contents are private: stores persist it
// with the store's framing and never look inside.
type Certificate struct {
	shape   []int
	entries [3]map[string]bool // by entry kind
}

// Entry kinds: a certificate keeps one decision map of each.
const (
	stitchEntry = iota // keyed by certPath
	seqEntry           // keyed by seqKey
	leafEntry          // keyed by leafKey
)

// certStep is the encoded size of one path step in a table key: the
// element and the segment index, 4 bytes big-endian each, so byte order
// of keys is the numeric lexicographic order of paths.
const certStep = 8

// certPath renders a composed state's (element, segment) path as a table
// key, appended to buf.
func certPath(buf []byte, c *composed) []byte {
	for i, e := range c.elems {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e))
		buf = binary.BigEndian.AppendUint32(buf, uint32(c.segs[i]))
	}
	return buf
}

// seqKey extends the sequence key prefix by one packet's terminal path:
// its step count, 4 bytes big-endian, then its certPath. A sequence key
// is the initial-state mode byte followed by one such record per packet.
func seqKey(prefix []byte, c *composed) []byte {
	key := make([]byte, 0, len(prefix)+4+certStep*len(c.elems))
	key = append(key, prefix...)
	key = binary.BigEndian.AppendUint32(key, uint32(len(c.elems)))
	return certPath(key, c)
}

// leafKey is the leaf entry key of a walk end: a tag byte, then for a
// table-dependent decision (p non-nil) p's concrete fingerprint, then
// the end's certPath. With tag 0 the entry records whether the end's
// lookups are free of its conditions (lookupsFree), a fact of the
// summaries alone; with tag 1, whether the end is feasible under p's
// tables.
func leafKey(p *click.Pipeline, c *composed) []byte {
	if p == nil {
		return certPath([]byte{0}, c)
	}
	fp := p.Fingerprint()
	return certPath(append([]byte{1}, fp[:]...), c)
}

// newCertificate returns an empty certificate of the given shape.
func newCertificate(shape []int) *Certificate {
	return &Certificate{shape: shape, entries: [3]map[string]bool{{}, {}, {}}}
}

// appendPath encodes a certPath key: its step count, then each element
// and segment index.
func appendPath(out []byte, p string) []byte {
	out = binary.AppendUvarint(out, uint64(len(p)/certStep))
	for i := 0; i < len(p); i += 4 {
		out = binary.AppendUvarint(out, uint64(binary.BigEndian.Uint32([]byte(p[i:i+4]))))
	}
	return out
}

// encode serializes the certificate: the shape, then the stitch, the
// sequence and the leaf entries, each sorted by key, so the bytes depend
// only on the content, never on the order in which walkers recorded it.
// A sequence entry is its mode byte, its packet count, then each
// packet's path; a leaf entry is its tag byte, the fingerprint a tag of
// 1 carries, then its path.
func (c *Certificate) encode() []byte {
	out := binary.AppendUvarint(nil, uint64(len(c.shape)))
	for _, n := range c.shape {
		out = binary.AppendUvarint(out, uint64(n))
	}
	for kind, m := range c.entries {
		keys := sortedKeys(m)
		out = binary.AppendUvarint(out, uint64(len(keys)))
		for _, k := range keys {
			switch kind {
			case stitchEntry:
				out = appendPath(out, k)
			case leafEntry:
				n := 1
				if k[0] == 1 {
					n += len(ir.Fingerprint{})
				}
				out = append(out, k[:n]...)
				out = appendPath(out, k[n:])
			default:
				out = append(out, k[0])
				var paths []string
				for rest := k[1:]; len(rest) > 0; {
					n := 4 + certStep*int(binary.BigEndian.Uint32([]byte(rest)))
					paths = append(paths, rest[4:n])
					rest = rest[n:]
				}
				out = binary.AppendUvarint(out, uint64(len(paths)))
				for _, p := range paths {
					out = appendPath(out, p)
				}
			}
			if m[k] {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
	}
	return out
}

// sortedKeys returns the keys of m in byte order.
func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var errCorruptCert = errors.New("verify: corrupt certificate")

// certDecoder reads an encode stream.
type certDecoder struct {
	data  []byte
	pos   int
	shape []int
}

// next reads a uvarint below limit.
func (d *certDecoder) next(limit uint64) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 || v >= limit {
		return 0, errCorruptCert
	}
	d.pos += n
	return v, nil
}

// byteBelow reads one byte below limit.
func (d *certDecoder) byteBelow(limit byte) (byte, error) {
	if d.pos >= len(d.data) || d.data[d.pos] >= limit {
		return 0, errCorruptCert
	}
	d.pos++
	return d.data[d.pos-1], nil
}

// path reads one nonempty path whose steps stay inside the shape and
// appends its certPath key to key; withDepth prefixes it with its step
// count as seqKey does.
func (d *certDecoder) path(key []byte, withDepth bool) ([]byte, error) {
	depth, err := d.next(uint64(len(d.data)-d.pos)/2 + 1)
	if err != nil || depth == 0 {
		return nil, errCorruptCert
	}
	if withDepth {
		key = binary.BigEndian.AppendUint32(key, uint32(depth))
	}
	for i := uint64(0); i < depth; i++ {
		e, err := d.next(uint64(len(d.shape)))
		if err != nil {
			return nil, err
		}
		s, err := d.next(uint64(d.shape[e]))
		if err != nil {
			return nil, err
		}
		key = binary.BigEndian.AppendUint32(key, uint32(e))
		key = binary.BigEndian.AppendUint32(key, uint32(s))
	}
	return key, nil
}

// decodeCertificate parses an encode stream. Any malformation —
// truncation, a path naming an element or segment outside the shape, a
// mode byte other than boot/symbolic, entries out of order or repeated,
// a decision byte other than 0/1, trailing bytes — is an error, never a
// panic: the store counts it corrupt and the walk solves instead.
func decodeCertificate(data []byte) (*Certificate, error) {
	d := &certDecoder{data: data}
	nElems, err := d.next(uint64(len(data)) + 1)
	if err != nil {
		return nil, err
	}
	d.shape = make([]int, nElems)
	for i := range d.shape {
		n, err := d.next(1 << 32)
		if err != nil {
			return nil, err
		}
		d.shape[i] = int(n)
	}
	c := newCertificate(d.shape)
	for kind, m := range c.entries {
		nEntries, err := d.next(uint64(len(data)) + 1)
		if err != nil {
			return nil, err
		}
		prev := ""
		for i := uint64(0); i < nEntries; i++ {
			var key []byte
			switch kind {
			case stitchEntry:
				key, err = d.path(nil, false)
			case seqEntry:
				key, err = d.seqKey()
			default:
				key, err = d.leafKey()
			}
			if err != nil {
				return nil, err
			}
			decision, err := d.byteBelow(2)
			if err != nil {
				return nil, err
			}
			k := string(key)
			if i > 0 && k <= prev {
				return nil, fmt.Errorf("%w: entries out of order", errCorruptCert)
			}
			m[k] = decision == 1
			prev = k
		}
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("%w: trailing bytes", errCorruptCert)
	}
	return c, nil
}

// leafKey reads a leaf entry's key: a tag byte, the fingerprint a tag
// of 1 carries, then one path.
func (d *certDecoder) leafKey() ([]byte, error) {
	tag, err := d.byteBelow(2)
	if err != nil {
		return nil, err
	}
	key := []byte{tag}
	if tag == 1 {
		n := len(ir.Fingerprint{})
		if len(d.data)-d.pos < n {
			return nil, errCorruptCert
		}
		key = append(key, d.data[d.pos:d.pos+n]...)
		d.pos += n
	}
	return d.path(key, false)
}

// seqKey reads a sequence entry's key: a mode byte (boot or symbolic
// initial state), then a nonzero number of paths.
func (d *certDecoder) seqKey() ([]byte, error) {
	mode, err := d.byteBelow(byte(symbex.InitSymbolic) + 1)
	if err != nil {
		return nil, err
	}
	n, err := d.next(uint64(len(d.data)-d.pos)/2 + 1)
	if err != nil || n == 0 {
		return nil, errCorruptCert
	}
	key := []byte{mode}
	for i := uint64(0); i < n; i++ {
		if key, err = d.path(key, true); err != nil {
			return nil, err
		}
	}
	return key, nil
}

// certTable is a Verifier's in-memory decision table for one certificate
// key, shared by every walk over that key (so the bound walk replays
// the crash walk, and a long-lived service replays resubmissions) and
// recorded into concurrently by parallel walkers. Its shape is fixed;
// mu guards its entries.
type certTable struct {
	key    ir.Fingerprint
	loaded sync.Once

	mu sync.Mutex
	Certificate
	// solved counts entries a SAT call decided since the last save: a
	// walk that needed none replays no faster than it solves, so it
	// costs no certificate write.
	solved int
}

// lookup returns the recorded decision of the given kind for key, if any.
func (t *certTable) lookup(kind int, key []byte) (feasible, ok bool) {
	t.mu.Lock()
	feasible, ok = t.entries[kind][string(key)]
	t.mu.Unlock()
	return feasible, ok
}

// record adds an exact decision; sat marks one the SAT core made.
func (t *certTable) record(kind int, key []byte, feasible, sat bool) {
	t.mu.Lock()
	if _, ok := t.entries[kind][string(key)]; !ok {
		t.entries[kind][string(key)] = feasible
		if sat {
			t.solved++
		}
	}
	t.mu.Unlock()
}

// certTableFor returns the verifier's decision table for a walk of p
// over the given summaries (from summarizeAll), loading the stored
// certificate the first time a key is seen. The key hashes p's summary
// fingerprint, not its concrete one: the decisions depend on the
// tables only through the summaries, but for the leaf entries of tag 1,
// whose own keys carry the concrete fingerprint.
func (v *Verifier) certTableFor(p *click.Pipeline, sums []*summaryEntry) *certTable {
	h := ir.NewHasher(certVersion)
	h.Fingerprint(p.SummaryFingerprint())
	h.U64(v.opts.MinLen)
	h.U64(v.opts.MaxLen)
	for _, ent := range sums {
		h.Fingerprint(ent.digest())
	}
	key := h.Sum()
	v.mu.Lock()
	t, ok := v.certs[key]
	if !ok {
		if v.opts.Store != nil && len(v.certs) >= maxCachedCerts {
			v.certs = map[ir.Fingerprint]*certTable{}
		}
		shape := make([]int, len(sums))
		for i, ent := range sums {
			shape[i] = len(ent.segs)
		}
		t = &certTable{key: key, Certificate: *newCertificate(shape)}
		v.certs[key] = t
	}
	v.mu.Unlock()
	t.loaded.Do(func() {
		cs, ok := v.opts.Store.(CertificateStore)
		if !ok {
			return
		}
		lane := v.tel.getLane()
		sp := lane.Begin("store", "store-load:certificate")
		c, ok := cs.LoadCertificate(key)
		sp.End()
		v.tel.putLane(lane)
		// A certificate whose shape is not the summaries' was not derived
		// from them, whatever its key says: it is ignored, not trusted.
		if !ok || !slices.Equal(c.shape, t.shape) {
			return
		}
		t.mu.Lock()
		for kind, m := range c.entries {
			maps.Copy(t.entries[kind], m)
		}
		t.mu.Unlock()
	})
	return t
}

// saveCert persists t once its walks are through, and only when they
// recorded a decision the SAT core made.
func (v *Verifier) saveCert(t *certTable) {
	cs, ok := v.opts.Store.(CertificateStore)
	if t == nil || !ok {
		return
	}
	t.mu.Lock()
	if t.solved == 0 {
		t.mu.Unlock()
		return
	}
	t.solved = 0
	c := &Certificate{shape: t.shape}
	for kind, m := range t.entries {
		c.entries[kind] = maps.Clone(m)
	}
	t.mu.Unlock()
	lane := v.tel.getLane()
	sp := lane.Begin("store", "store-save:certificate")
	cs.SaveCertificate(t.key, c)
	sp.End()
	v.tel.putLane(lane)
}

// certSaves defers the certificate writes of several walks and searches
// to one: an admission hands one to each of its stages and flushes it
// after the last, so a submission writes its certificate at most once.
// A nil *certSaves saves after each walk or search.
type certSaves struct{ tables []*certTable }

// done is called when a walk or search is through with t.
func (s *certSaves) done(v *Verifier, t *certTable) {
	if s == nil {
		v.saveCert(t)
		return
	}
	if t != nil && !slices.Contains(s.tables, t) {
		s.tables = append(s.tables, t)
	}
}

// flush saves every table handed to done.
func (s *certSaves) flush(v *Verifier) {
	for _, t := range s.tables {
		v.saveCert(t)
	}
	s.tables = nil
}

// digest returns the digest of the entry's summary in its encoded
// form: the store's when it read or wrote the encoding, otherwise
// computed once per cache entry.
func (ent *summaryEntry) digest() ir.Fingerprint {
	ent.digestOnce.Do(func() {
		if ent.sum == (ir.Fingerprint{}) {
			ent.sum = ir.Fingerprint(sha256.Sum256(symbex.EncodeSummary(&symbex.Summary{Segments: ent.segs, Merged: ent.merged})))
		}
	})
	return ent.sum
}
