package verify

// SummaryStore: durable, content-addressed Step-1 artifacts
// (DESIGN.md §7). Step 1 — the expensive symbolic execution of each
// element class — used to live only in a per-Verifier in-memory map and
// die with the process. A SummaryStore makes summaries outlive it:
// artifacts are keyed by StoreKey — the ir.Program content fingerprint
// bound to the Step-1 context (packet-length bounds, engine modes) the
// summary was computed under — so a store entry is valid for exactly
// the configurations whose summaries it holds, no matter which
// registry, class name, or process produced it.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"vsd/internal/ir"
	"vsd/internal/symbex"
)

// SummaryStore persists Step-1 summaries across Verifier instances (and,
// for the disk implementation, across processes). Keys are StoreKey
// values. Load returns ok=false on any miss — absent, stale, or corrupt
// entries alike — in which case the verifier falls back to
// re-summarizing; Load must never return a summary that was not stored
// under the same key. Save failures are not fatal to verification and
// are reported via Stats. Implementations must be safe for concurrent
// use. A store that reads or writes a summary's encoding sets its
// Digest (symbex.Summary), so the verifier need not encode it again to
// key certificates.
type SummaryStore interface {
	Load(fp ir.Fingerprint) (*symbex.Summary, bool)
	Save(fp ir.Fingerprint, s *symbex.Summary)
}

// StoreKey derives the summary-store key for one program under the
// given options: the program's summary fingerprint (its content hash
// with static tables reduced to their value sets, which is all Step 1
// reads of them) mixed with the Step-1 context the summary depends on. The packet-length bounds are
// part of the key because the engine assumes them during pruning
// without recording them in segment conditions — a summary computed
// under [64,128] legitimately omits crash segments that only packets
// shorter than 64 bytes can reach, so reusing it at [14,48] would be
// unsound. Step 1 has one engine configuration, so nothing else enters
// the key. Zero option values normalize exactly as in New, so equal
// effective configurations share keys.
func StoreKey(prog *ir.Program, opts Options) ir.Fingerprint {
	opts, _ = opts.normalize()
	h := ir.NewHasher("vsd/sumkey/v4")
	h.Fingerprint(prog.SummaryFingerprint())
	h.U64(opts.MinLen)
	h.U64(opts.MaxLen)
	return h.Sum()
}

// CertificateStore is the optional capability of a SummaryStore that
// also persists Step-2 certificates (DESIGN.md §7.5), keyed by the
// certificate key the verifier derives. The verifier discovers it by
// type assertion; without it, certificates live in the Verifier's
// memory only. LoadCertificate has Load's contract: ok=false on any
// miss — absent, stale or corrupt alike — and never a certificate that
// was not saved under the same key.
type CertificateStore interface {
	LoadCertificate(key ir.Fingerprint) (*Certificate, bool)
	SaveCertificate(key ir.Fingerprint, c *Certificate)
}

// StoreStats counts store traffic. The Cert counters are certificate
// traffic, kept apart so the summary counters mean what they always
// meant.
type StoreStats struct {
	Hits      int64 // Load calls that returned a summary
	Misses    int64 // Load calls with no entry
	Corrupt   int64 // entries rejected (bad magic/fingerprint/decode)
	Saves     int64 // successful Save calls
	SaveFails int64 // Save calls that could not persist

	CertHits    int64 // LoadCertificate calls that returned a certificate
	CertMisses  int64 // LoadCertificate calls with no entry
	CertCorrupt int64 // certificates rejected (framing or decode)
	CertSaves   int64 // successful SaveCertificate calls
}

// MemStore is the in-memory SummaryStore: a map from fingerprint to
// summary. It is what the verifier's once-map cache has always been,
// behind the store interface — useful for sharing summaries across
// Verifier instances within one process and as the reference
// implementation in tests.
type MemStore struct {
	mu    sync.Mutex
	m     map[ir.Fingerprint]*symbex.Summary
	certs map[ir.Fingerprint]*Certificate
	stats StoreStats
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: map[ir.Fingerprint]*symbex.Summary{}, certs: map[ir.Fingerprint]*Certificate{}}
}

// Load implements SummaryStore.
func (s *MemStore) Load(fp ir.Fingerprint) (*symbex.Summary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, ok := s.m[fp]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return sum, ok
}

// Save implements SummaryStore.
func (s *MemStore) Save(fp ir.Fingerprint, sum *symbex.Summary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[fp] = sum
	s.stats.Saves++
}

// LoadCertificate implements CertificateStore.
func (s *MemStore) LoadCertificate(key ir.Fingerprint) (*Certificate, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.certs[key]
	if ok {
		s.stats.CertHits++
	} else {
		s.stats.CertMisses++
	}
	return c, ok
}

// SaveCertificate implements CertificateStore. The verifier hands over a
// snapshot it no longer mutates, so the store keeps the pointer.
func (s *MemStore) SaveCertificate(key ir.Fingerprint, c *Certificate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.certs[key] = c
	s.stats.CertSaves++
}

// Stats returns a snapshot of the store counters.
func (s *MemStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DiskStore is the persistent, content-addressed SummaryStore: one file
// per summary key (StoreKey: program fingerprint + Step-1 context)
// under a directory, in the EncodeSummary format framed by a header
// that repeats the key and a content checksum. Entries that fail any
// check — wrong magic, wrong embedded key (a renamed or hand-edited
// file), wrong checksum, or a codec error — are treated as misses, so a
// corrupted store degrades to re-summarizing, never to wrong verdicts.
// Writes go through a temporary file plus rename, so concurrent readers
// see only complete entries. It is also a CertificateStore: Step-2
// certificates go through the same framing and write path, under their
// own file suffix.
type DiskStore struct {
	dir string

	hits      atomic.Int64
	misses    atomic.Int64
	corrupt   atomic.Int64
	saves     atomic.Int64
	saveFails atomic.Int64

	certHits    atomic.Int64
	certMisses  atomic.Int64
	certCorrupt atomic.Int64
	certSaves   atomic.Int64
}

// diskMagic frames store files; the payload carries its own format
// version (summaries) or is versioned by its key (certificates).
const diskMagic = "VSDSTORE1\n"

// summaryExt and certExt are the store-file suffixes of the two
// artifact kinds.
const (
	summaryExt = ".vsum"
	certExt    = ".vcert"
)

// NewDiskStore opens (creating if needed) the store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("verify: opening summary store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(fp ir.Fingerprint) string {
	return filepath.Join(s.dir, fp.String()+summaryExt)
}

// Path returns the file a given key is (or would be) stored at. It
// exists for the fault-injection harness and for operational tooling;
// writing to the path directly bypasses the store's durability
// protocol.
func (s *DiskStore) Path(fp ir.Fingerprint) string { return s.path(fp) }

// CertificatePath is Path for the certificate stored under key.
func (s *DiskStore) CertificatePath(key ir.Fingerprint) string {
	return filepath.Join(s.dir, key.String()+certExt)
}

// Load implements SummaryStore.
func (s *DiskStore) Load(fp ir.Fingerprint) (*symbex.Summary, bool) {
	data, err := os.ReadFile(s.path(fp))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	sum, err := decodeStoreFile(fp, data)
	if err != nil {
		s.corrupt.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return sum, true
}

// decodeStoreFile validates the framing and decodes the summary payload.
// The summary's digest is the payload checksum unframe just verified.
func decodeStoreFile(fp ir.Fingerprint, data []byte) (*symbex.Summary, error) {
	payload, err := unframe(fp, data)
	if err != nil {
		return nil, err
	}
	sum, err := symbex.DecodeSummary(payload)
	if err != nil {
		return nil, err
	}
	sum.Digest = ir.Fingerprint(data[len(data)-sha256.Size:])
	return sum, nil
}

// unframe checks a store file's framing — magic, the embedded key, the
// payload checksum — and returns the payload.
func unframe(fp ir.Fingerprint, data []byte) ([]byte, error) {
	if len(data) < len(diskMagic)+len(fp)+sha256.Size {
		return nil, fmt.Errorf("verify: store entry truncated (%d bytes)", len(data))
	}
	if string(data[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("verify: store entry has bad magic")
	}
	data = data[len(diskMagic):]
	var got ir.Fingerprint
	copy(got[:], data)
	if got != fp {
		return nil, fmt.Errorf("verify: store entry fingerprint mismatch: %s under key %s", got, fp)
	}
	data = data[len(fp):]
	payload, check := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sha256.Sum256(payload) != [sha256.Size]byte(check) {
		return nil, fmt.Errorf("verify: store entry checksum mismatch")
	}
	return payload, nil
}

// Save implements SummaryStore. It sets sum.Digest from the one
// encoding it writes.
func (s *DiskStore) Save(fp ir.Fingerprint, sum *symbex.Summary) {
	payload := symbex.EncodeSummary(sum)
	sum.Digest = sha256.Sum256(payload)
	if s.write(s.path(fp), fp, payload) {
		s.saves.Add(1)
	} else {
		s.saveFails.Add(1)
	}
}

// LoadCertificate implements CertificateStore.
func (s *DiskStore) LoadCertificate(key ir.Fingerprint) (*Certificate, bool) {
	data, err := os.ReadFile(s.CertificatePath(key))
	if err != nil {
		s.certMisses.Add(1)
		return nil, false
	}
	payload, err := unframe(key, data)
	var c *Certificate
	if err == nil {
		c, err = decodeCertificate(payload)
	}
	if err != nil {
		s.certCorrupt.Add(1)
		return nil, false
	}
	s.certHits.Add(1)
	return c, true
}

// SaveCertificate implements CertificateStore. A failed write leaves
// the certificate to be re-derived by the next walk.
func (s *DiskStore) SaveCertificate(key ir.Fingerprint, c *Certificate) {
	if s.write(s.CertificatePath(key), key, c.encode()) {
		s.certSaves.Add(1)
	}
}

// write frames payload under fp and makes it durable at path: the one
// write path of every artifact kind. It reports whether the artifact
// was persisted.
func (s *DiskStore) write(path string, fp ir.Fingerprint, payload []byte) bool {
	buf := make([]byte, 0, len(diskMagic)+len(fp)+len(payload)+sha256.Size)
	buf = append(buf, diskMagic...)
	buf = append(buf, fp[:]...)
	buf = append(buf, payload...)
	check := sha256.Sum256(payload)
	buf = append(buf, check[:]...)
	tmp, err := os.CreateTemp(s.dir, "tmp-*"+filepath.Ext(path))
	if err != nil {
		return false
	}
	// Write, fsync, close, rename, fsync the directory: the entry must
	// be durable before it becomes visible under its key, and the rename
	// must itself survive a crash (a torn entry would be caught by the
	// checksum and degrade to a miss, but a journaled service should not
	// re-summarize after every power cut either).
	_, werr := tmp.Write(buf)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	syncDir(s.dir)
	return true
}

// syncDir fsyncs a directory so a completed rename survives a crash.
// Best-effort: some filesystems refuse directory fsync; the checksum
// framing still protects readers.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Stats returns a snapshot of the store counters.
func (s *DiskStore) Stats() StoreStats {
	return StoreStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Saves:     s.saves.Load(),
		SaveFails: s.saveFails.Load(),

		CertHits:    s.certHits.Load(),
		CertMisses:  s.certMisses.Load(),
		CertCorrupt: s.certCorrupt.Load(),
		CertSaves:   s.certSaves.Load(),
	}
}

// Len reports the number of complete summary entries currently in the
// store (certificates are not counted).
func (s *DiskStore) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		name := e.Name()
		if filepath.Ext(name) == summaryExt && len(name) == 64+len(summaryExt) {
			n++
		}
	}
	return n, nil
}
