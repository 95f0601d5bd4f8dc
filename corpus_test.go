package vsd

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/experiments"
	"vsd/internal/packet"
	"vsd/internal/symbex"
	"vsd/internal/verify"
)

// TestCorpusMatchesFiles keeps the two copies of the example admission
// corpus in sync: examples/corpus/*.click (used by vsdverify -batch,
// vsdserve -smoke, and the store-roundtrip CI job) and
// experiments.Corpus() (used by the B1 benchmark). Equality is by
// pipeline fingerprint, so formatting and comments may differ but the
// verified artifact may not.
func TestCorpusMatchesFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("examples", "corpus", "*.click"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	builtin := experiments.Corpus()
	if len(files) != len(builtin) {
		t.Fatalf("examples/corpus has %d .click files, experiments.Corpus has %d entries", len(files), len(builtin))
	}
	byName := map[string]string{}
	for _, c := range builtin {
		p, err := click.Parse(elements.Default(), c.Src)
		if err != nil {
			t.Fatalf("builtin %s: %v", c.Name, err)
		}
		byName[c.Name] = p.Fingerprint().String()
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := click.Parse(elements.Default(), string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		name := filepath.Base(f)
		want, ok := byName[name]
		if !ok {
			t.Errorf("%s has no experiments.Corpus counterpart", name)
			continue
		}
		if got := p.Fingerprint().String(); got != want {
			t.Errorf("%s diverges from experiments.Corpus (%s vs %s)", name, got, want)
		}
	}
}

// TestCorpusSummariesReencodeExactly pins that decoding a summary and
// encoding it again gives back the same bytes, for every element summary
// of the corpus at the bounds the store-roundtrip job uses. A store takes
// a loaded summary's digest (which keys Step-2 certificates) from the
// bytes it read and a saved one's from the bytes it wrote, so this is
// what makes a warm digest equal the cold one.
func TestCorpusSummariesReencodeExactly(t *testing.T) {
	v := verify.New(verify.Options{MinLen: packet.MinFrame, MaxLen: 48})
	seen := 0
	for _, c := range experiments.Corpus() {
		p, err := click.Parse(elements.Default(), c.Src)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, e := range p.Elements {
			segs, err := v.Summarize(e)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, e.Name(), err)
			}
			for _, merged := range []bool{false, true} {
				b := symbex.EncodeSummary(&symbex.Summary{Segments: segs, Merged: merged})
				d, err := symbex.DecodeSummary(b)
				if err != nil {
					t.Fatalf("%s/%s: %v", c.Name, e.Name(), err)
				}
				if again := symbex.EncodeSummary(d); !bytes.Equal(again, b) {
					t.Errorf("%s/%s: re-encoding a decoded summary changes its bytes (%d -> %d bytes)", c.Name, e.Name(), len(b), len(again))
				}
			}
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("the corpus has no elements")
	}
}
