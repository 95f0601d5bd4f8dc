package verify

// Step-2 certificates (DESIGN.md §7.5). A walk with no extra input
// assumptions — CrashFreedom, BoundedInstructions, the sequence engine's
// terminal-path walk — decides one feasibility question per stitch
// obligation, and each answer is an exact SAT/UNSAT fact about a formula
// fixed by the pipeline, the packet-length bounds and the element
// summaries. A certificate records those answers (decisions only, never
// a model) under a key hashed from exactly those inputs, so a later walk
// over the same inputs replays them instead of solving.

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
const certVersion = "vsd/cert/v1"

// Certificate is the decision table of one certificate key: for every
// recorded stitch obligation, identified by its path of (element index,
// segment index) steps from the pipeline entry, whether the stitched
// constraint is feasible. It also records the summary segment count of
// each element, the range every path must stay inside. Its contents are
// private: stores persist it with the store's framing and never look
// inside.
type Certificate struct {
	shape   []int
	entries map[string]bool
}

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

// encode serializes the certificate: the shape, then the entries sorted
// by path, so the bytes depend only on the content, never on the order
// in which walkers recorded it.
func (c *Certificate) encode() []byte {
	paths := make([]string, 0, len(c.entries))
	for p := range c.entries {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := binary.AppendUvarint(nil, uint64(len(c.shape)))
	for _, n := range c.shape {
		out = binary.AppendUvarint(out, uint64(n))
	}
	out = binary.AppendUvarint(out, uint64(len(paths)))
	for _, p := range paths {
		out = binary.AppendUvarint(out, uint64(len(p)/certStep))
		for i := 0; i < len(p); i += 4 {
			out = binary.AppendUvarint(out, uint64(binary.BigEndian.Uint32([]byte(p[i:i+4]))))
		}
		if c.entries[p] {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

var errCorruptCert = errors.New("verify: corrupt certificate")

// decodeCertificate parses an encode stream. Any malformation —
// truncation, a path naming an element or segment outside the shape,
// entries out of order or repeated, a decision byte other than 0/1,
// trailing bytes — is an error, never a panic: the store counts it
// corrupt and the walk solves instead.
func decodeCertificate(data []byte) (*Certificate, error) {
	pos := 0
	next := func(limit uint64) (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 || v >= limit {
			return 0, errCorruptCert
		}
		pos += n
		return v, nil
	}
	nElems, err := next(uint64(len(data)) + 1)
	if err != nil {
		return nil, err
	}
	c := &Certificate{shape: make([]int, nElems), entries: map[string]bool{}}
	for i := range c.shape {
		n, err := next(1 << 32)
		if err != nil {
			return nil, err
		}
		c.shape[i] = int(n)
	}
	nEntries, err := next(uint64(len(data)) + 1)
	if err != nil {
		return nil, err
	}
	prev := ""
	for i := uint64(0); i < nEntries; i++ {
		depth, err := next(uint64(len(data)-pos)/2 + 1)
		if err != nil || depth == 0 {
			return nil, errCorruptCert
		}
		key := make([]byte, 0, depth*certStep)
		for d := uint64(0); d < depth; d++ {
			e, err := next(nElems)
			if err != nil {
				return nil, err
			}
			s, err := next(uint64(c.shape[e]))
			if err != nil {
				return nil, err
			}
			key = binary.BigEndian.AppendUint32(key, uint32(e))
			key = binary.BigEndian.AppendUint32(key, uint32(s))
		}
		if pos >= len(data) || data[pos] > 1 {
			return nil, errCorruptCert
		}
		p := string(key)
		if i > 0 && p <= prev {
			return nil, fmt.Errorf("%w: entries out of order", errCorruptCert)
		}
		c.entries[p] = data[pos] == 1
		prev = p
		pos++
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: trailing bytes", errCorruptCert)
	}
	return c, nil
}

// certTable is a Verifier's in-memory decision table for one certificate
// key, shared by every walk over that key (so the bound walk replays
// the crash walk, and a long-lived service replays resubmissions) and
// recorded into concurrently by parallel walkers.
type certTable struct {
	key    ir.Fingerprint
	shape  []int
	loaded sync.Once

	mu      sync.Mutex
	entries map[string]bool
	// solved counts entries a SAT call decided since the last save: a
	// walk that needed none replays no faster than it solves, so it
	// costs no certificate write.
	solved int
}

// lookup returns the recorded decision for path, if any.
func (t *certTable) lookup(path []byte) (feasible, ok bool) {
	t.mu.Lock()
	feasible, ok = t.entries[string(path)]
	t.mu.Unlock()
	return feasible, ok
}

// record adds an exact decision; sat marks one the SAT core made.
func (t *certTable) record(path []byte, feasible, sat bool) {
	t.mu.Lock()
	if _, ok := t.entries[string(path)]; !ok {
		t.entries[string(path)] = feasible
		if sat {
			t.solved++
		}
	}
	t.mu.Unlock()
}

// certTableFor returns the verifier's decision table for a walk of p
// over the given summaries (from summarizeAll), loading the stored
// certificate the first time a key is seen. nil when the summaries are
// not cached, so have no digest to key on (DisableSummaryCache).
func (v *Verifier) certTableFor(p *click.Pipeline, sums []*summaryEntry) *certTable {
	if v.opts.DisableSummaryCache {
		return nil
	}
	h := ir.NewHasher(certVersion)
	h.Fingerprint(p.Fingerprint())
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
		t = &certTable{key: key, shape: shape, entries: map[string]bool{}}
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
		maps.Copy(t.entries, c.entries)
		t.mu.Unlock()
	})
	return t
}

// saveCert persists t after a walk, once per walk and only when the
// walk recorded a decision the SAT core made.
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
	c := &Certificate{shape: t.shape, entries: maps.Clone(t.entries)}
	t.mu.Unlock()
	lane := v.tel.getLane()
	sp := lane.Begin("store", "store-save:certificate")
	cs.SaveCertificate(t.key, c)
	sp.End()
	v.tel.putLane(lane)
}

// digest returns the digest of the entry's summary in its encoded
// form, computed once per cache entry.
func (ent *summaryEntry) digest() ir.Fingerprint {
	ent.digestOnce.Do(func() {
		ent.sum = ir.Fingerprint(sha256.Sum256(symbex.EncodeSummary(&symbex.Summary{Segments: ent.segs, Merged: ent.merged})))
	})
	return ent.sum
}
