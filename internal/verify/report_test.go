package verify

import (
	"strings"
	"testing"
)

// Golden tests pin the CLI witness rendering: vsdverify output is an
// interface (scripts and the examples grep it), so format drift must be
// a deliberate, reviewed change.

func TestFormatWitnessGolden(t *testing.T) {
	w := Witness{
		Packet: []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03,
			0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d},
		Path:   "src[0] -> e2[0]",
		Detail: "assert: in >= 0 in ToyE2",
	}
	want := `  path:   src[0] -> e2[0]
  detail: assert: in >= 0 in ToyE2
  packet: (18 bytes)
    0000: de ad be ef 00 01 02 03 04 05 06 07 08 09 0a 0b
    0010: 0c 0d
`
	if got := FormatWitness(w); got != want {
		t.Errorf("FormatWitness drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFormatWitnessTruncationGolden(t *testing.T) {
	pkt := make([]byte, 80)
	for i := range pkt {
		pkt[i] = byte(i)
	}
	w := Witness{Packet: pkt, Path: "p", Detail: "d"}
	want := `  path:   p
  detail: d
  packet: (80 bytes)
    0000: 00 01 02 03 04 05 06 07 08 09 0a 0b 0c 0d 0e 0f
    0010: 10 11 12 13 14 15 16 17 18 19 1a 1b 1c 1d 1e 1f
    0020: 20 21 22 23 24 25 26 27 28 29 2a 2b 2c 2d 2e 2f
    0030: 30 31 32 33 34 35 36 37 38 39 3a 3b 3c 3d 3e 3f … (+16)
`
	if got := FormatWitness(w); got != want {
		t.Errorf("FormatWitness truncation drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestFormatSpecWitnessGolden pins the spec-violation shape: the output
// packet dump with change markers on the bytes the pipeline rewrote.
func TestFormatSpecWitnessGolden(t *testing.T) {
	w := Witness{
		Packet: []byte{0x45, 0x00, 0x00, 0x14, 0x40, 0x00},
		Output: []byte{0x45, 0x00, 0x00, 0x14, 0x3e, 0x00},
		Path:   "src[0] -> ttl[0] -> encap[0]",
		Detail: "spec ttl-decrement: postcondition violated (egress encap[0])",
	}
	want := `  path:   src[0] -> ttl[0] -> encap[0]
  detail: spec ttl-decrement: postcondition violated (egress encap[0])
  packet: (6 bytes)
    0000: 45 00 00 14 40 00
  output: (6 bytes, * marks bytes changed by the pipeline)
    0000: 45  00  00  14  3e* 00
`
	if got := FormatWitness(w); got != want {
		t.Errorf("spec witness format drifted:\n got:\n%q\nwant:\n%q", got, want)
	}
}

// TestFormatObligationProfileKeepsWholeNames: stitch names share long
// prefixes (every options-router stitch starts with the same 60
// characters), so the profile must print each name whole to tell them
// apart.
func TestFormatObligationProfileKeepsWholeNames(t *testing.T) {
	prefix := "src[0] -> cls[0] -> strip[0] -> chk[0] -> opt[0] -> rt[0] ->"
	if len(prefix) != 60 {
		t.Fatalf("prefix is %d characters, want 60", len(prefix))
	}
	stats := []ObligationStat{
		{Kind: "stitch", Name: prefix + " ttl", Queries: 1, WallNS: 2000},
		{Kind: "stitch", Name: prefix + " encap", Queries: 1, WallNS: 1000},
	}
	out := FormatObligationProfile(stats, 10)
	for _, st := range stats {
		if got := strings.Count(out, "  "+st.Name+"\n"); got != 3 {
			t.Errorf("%q ends %d row(s), want one per section (3):\n%s", st.Name, got, out)
		}
	}
}
