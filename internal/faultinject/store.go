package faultinject

import (
	"time"

	"vsd/internal/ir"
	"vsd/internal/symbex"
	"vsd/internal/verify"
)

// Store wraps a DiskStore and injects the disk-side failure modes
// around it. The wrapped store's own validation (magic, embedded key,
// checksum) is the mechanism under test: every injected corruption
// must surface as a miss at the verify layer — re-summarization or a
// re-solved walk, never a wrong hit and never a panic. Store implements
// verify.SummaryStore and verify.CertificateStore, with the same fault
// kinds for both artifact kinds.
type Store struct {
	in    *Injector
	inner *verify.DiskStore
}

// WrapStore interposes the injector on a disk store.
func WrapStore(in *Injector, inner *verify.DiskStore) *Store {
	return &Store{in: in, inner: inner}
}

// Inner returns the wrapped store (for its stats).
func (s *Store) Inner() *verify.DiskStore { return s.inner }

// Load implements verify.SummaryStore (see beforeLoad).
func (s *Store) Load(fp ir.Fingerprint) (*symbex.Summary, bool) {
	s.beforeLoad(s.inner.Path(fp))
	return s.inner.Load(fp)
}

// LoadCertificate implements verify.CertificateStore (see beforeLoad).
func (s *Store) LoadCertificate(key ir.Fingerprint) (*verify.Certificate, bool) {
	s.beforeLoad(s.inner.CertificatePath(key))
	return s.inner.LoadCertificate(key)
}

// beforeLoad may stall (slow read) or re-key the artifact at path to a
// wrong fingerprint (stale artifact) before the inner store reads it;
// the inner store's content addressing must reject the stale entry. A
// stale fault counts only when there was an artifact to re-key, so
// injected stale faults equal rejected artifacts.
func (s *Store) beforeLoad(path string) {
	s.in.mu.Lock()
	slow := s.in.roll(s.in.Rates.SlowRead)
	stale := s.in.roll(s.in.Rates.Stale)
	if slow {
		s.in.stats.SlowReads++
	}
	delay := s.in.SlowReadDelay
	s.in.mu.Unlock()
	if slow {
		if delay == 0 {
			delay = 10 * time.Millisecond
		}
		time.Sleep(delay)
	}
	if !stale {
		return
	}
	// A stale artifact is a well-formed entry that answers to the wrong
	// key — exactly what a mis-rename or a content drift would produce.
	// Flipping one embedded-fingerprint byte fabricates it.
	rekeyed := corruptFile(path, func(data []byte) []byte {
		if i := staleOffset(len(data)); i >= 0 {
			data[i] ^= 0x01
		}
		return data
	})
	if rekeyed {
		s.in.mu.Lock()
		s.in.stats.StaleArtifacts++
		s.in.mu.Unlock()
	}
}

// staleOffset picks the byte to re-key: the first fingerprint byte,
// which sits right after the 10-byte magic. -1 when the file is too
// short to carry one.
func staleOffset(n int) int {
	const magicLen = 10 // "VSDSTORE1\n"
	if n <= magicLen {
		return -1
	}
	return magicLen
}

// Save implements verify.SummaryStore (see save).
func (s *Store) Save(fp ir.Fingerprint, sum *symbex.Summary) {
	s.save(s.inner.Path(fp), func() { s.inner.Save(fp, sum) })
}

// SaveCertificate implements verify.CertificateStore (see save).
func (s *Store) SaveCertificate(key ir.Fingerprint, c *verify.Certificate) {
	s.save(s.inner.CertificatePath(key), func() { s.inner.SaveCertificate(key, c) })
}

// save may drop the write (ENOSPC), or complete it and then tear or
// bit-flip the artifact at path.
func (s *Store) save(path string, write func()) {
	s.in.mu.Lock()
	fail := s.in.roll(s.in.Rates.WriteFail)
	torn := s.in.roll(s.in.Rates.TornWrite)
	flip := s.in.roll(s.in.Rates.BitFlip)
	switch {
	case fail:
		s.in.stats.WriteFailures++
	case torn:
		s.in.stats.TornWrites++
	case flip:
		s.in.stats.BitFlips++
	}
	s.in.mu.Unlock()
	if fail {
		return
	}
	write()
	switch {
	case torn:
		corruptFile(path, func(data []byte) []byte {
			return data[:len(data)/2]
		})
	case flip:
		corruptFile(path, func(data []byte) []byte {
			if len(data) > 0 {
				data[len(data)-1] ^= 0x40
			}
			return data
		})
	}
}
