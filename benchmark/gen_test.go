package main

import (
	"bytes"
	"reflect"
	"testing"

	"vsd/internal/packet"
)

func frameBytes(bufs []*packet.Buffer) []byte {
	var out []byte
	for _, b := range bufs {
		out = append(out, b.Data...)
	}
	return out
}

// Same seed ⇒ byte-identical inputs, for every generator.
func TestGeneratorsAreDeterministic(t *testing.T) {
	if a, b := corpus12(7, nil), corpus12(7, nil); !reflect.DeepEqual(a, b) {
		t.Error("corpus12 differs between two calls with one seed")
	}
	base := serveBase(7)
	if !reflect.DeepEqual(base, serveBase(7)) {
		t.Error("serveBase differs between two calls with one seed")
	}
	if a, b := takeMix(7, base, 60), takeMix(7, base, 60); !reflect.DeepEqual(a, b) {
		t.Error("the request stream differs between two draws with one seed")
	}
	for name, f := range map[string]func(seed int64) []*packet.Buffer{
		"fixedFrames-64":   func(s int64) []*packet.Buffer { return fixedFrames(s, 100, 64, 64) },
		"fixedFrames-1514": func(s int64) []*packet.Buffer { return fixedFrames(s, 100, 1514, 250) },
		"mixFrames":        func(s int64) []*packet.Buffer { return mixFrames(s, 100) },
		"envelopeMix":      func(s int64) []*packet.Buffer { return envelopeMix(s, 100) },
	} {
		if !bytes.Equal(frameBytes(f(7)), frameBytes(f(7))) {
			t.Errorf("%s differs between two calls with one seed", name)
		}
		if bytes.Equal(frameBytes(f(7)), frameBytes(f(8))) {
			t.Errorf("%s is the same for two seeds", name)
		}
	}
}

// Different seed ⇒ every pipeline has a different fingerprint, so no run
// can be answered from another run's store; and every generated
// configuration parses.
func TestCorpusFingerprintsFollowTheSeed(t *testing.T) {
	fps := func(seed int64) []string {
		var out []string
		for _, s := range append(corpus12(seed, nil), serveBase(seed)...) {
			p, err := parse(s.Src)
			if err != nil {
				t.Fatalf("seed %d: %s does not parse: %v\n%s", seed, s.Name, err, s.Src)
			}
			out = append(out, p.Fingerprint().String())
		}
		return out
	}
	a, b := fps(1), fps(2)
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("pipeline %d has the same fingerprint under seeds 1 and 2", i)
		}
	}
	classes := map[string]int{}
	for _, s := range corpus12(1, nil) {
		classes[s.Class]++
	}
	if want := map[string]int{classLoop: 2, classCsum: 1, classPlain: 4, classState: 3, classBuggy: 2}; !reflect.DeepEqual(classes, want) {
		t.Errorf("corpus-12 classes = %v, want %v", classes, want)
	}
}

func takeMix(seed int64, base []pipelineSpec, n int) []request {
	m := newMixStream(seed, base)
	var out []request
	for len(out) < n {
		out = append(out, m.next())
	}
	return out
}

// The request mix holds its shares exactly per block of 20, parses
// where it should, and does not where it should not.
func TestServeMix(t *testing.T) {
	base := serveBase(3)
	mix := takeMix(3, base, 100)
	seen := map[string]bool{}
	for b := 0; b < 5; b++ {
		n := map[string]int{}
		for _, r := range mix[20*b : 20*b+20] {
			n[r.Class]++
			_, err := parse(r.Body)
			if (err == nil) != (r.WantStatus == 200) {
				t.Errorf("%s: parse error %v, but expected status %d", r.Name, err, r.WantStatus)
			}
			if r.Class != reqResubmit {
				if seen[r.Body] {
					t.Errorf("%s repeats an earlier body: it would not be novel", r.Name)
				}
				seen[r.Body] = true
			}
		}
		if want := map[string]int{reqResubmit: 12, reqNovelLight: 5, reqNovelLoop: 1, reqBuggy: 1, reqUnparsable: 1}; !reflect.DeepEqual(n, want) {
			t.Errorf("block %d mix = %v, want %v", b, n, want)
		}
	}
}

// Fixed-size frames have exactly the asked size and a valid header.
func TestFixedFrames(t *testing.T) {
	for _, size := range []int{64, 1514} {
		for _, b := range fixedFrames(5, 50, size, 64) {
			if len(b.Data) != size {
				t.Fatalf("frame of %d bytes, want %d", len(b.Data), size)
			}
			ip, err := packet.IPv4At(b.Data, packet.EthernetHeaderLen)
			if err != nil {
				t.Fatal(err)
			}
			if ck, err := ip.ComputeChecksum(); err != nil || ck != ip.Checksum() {
				t.Fatalf("frame header checksum does not verify (%v)", err)
			}
		}
	}
	for _, b := range envelopeMix(5, 500) {
		if len(b.Data) > maxLen {
			t.Fatalf("envelope packet of %d bytes exceeds maxLen %d", len(b.Data), maxLen)
		}
	}
}
