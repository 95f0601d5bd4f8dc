package main

// The correctness oracle. It runs outside every timed region, and every
// operation it faults counts as failed. A verdict is checked three
// ways: against the generator's by-construction answer; against the
// concrete interpreter (dataplane.Runner executes ir.Exec, which shares
// no code with the verifier); and against the other verdicts for the
// same configuration, on the schedule-independent fields only.

import (
	"encoding/hex"
	"fmt"
	"strings"

	"vsd/internal/click"
	"vsd/internal/dataplane"
	"vsd/internal/elements"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/verify"
	"vsd/internal/workload"
)

// maxLen is the packet-length bound every certification in the
// benchmark runs under (the value every BENCH_<n>.json record used).
const maxLen = 48

// oraclePackets is how many envelope packets a certified pipeline must
// survive on the interpreter; the hundreds of novel configurations of
// one serve-mixed run get oraclePacketsNovel each.
const (
	oraclePackets      = 20000
	oraclePacketsNovel = 2000
)

func verifyOptions(store verify.SummaryStore) verify.Options {
	return verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen, Store: store}
}

func parse(src string) (*click.Pipeline, error) {
	return click.Parse(elements.Default(), src)
}

// seedFault puts a refused pipeline's interpreter into the private state
// under which its designed fault fires, where it needs one. Only the
// plain Counter does: its overflow assertion fires on the packet after
// 2^32-1 others, and a single witness packet crashes the interpreter
// only once the store holds that count — the bad value the verifier
// showed reachable.
func seedFault(r *dataplane.Runner, p *click.Pipeline) error {
	for _, e := range p.Elements {
		if e.Class() == "Counter" && e.Config() == "" {
			return r.SeedState(e.Name(), "count", 0, 0xffffffff)
		}
	}
	return nil
}

// stableVerdict is the part of a verdict that is a function of
// (pipeline, options) on any core count. Witness bytes are left out:
// ROADMAP item 0 documents them as schedule-dependent on >1 core.
func stableVerdict(v verify.BatchVerdict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "certified=%v crash_free=%v bound=%d upper=%v", v.Certified, v.CrashFree, v.BoundSteps, v.BoundIsUpper)
	for _, in := range v.Induction {
		fmt.Fprintf(&b, " %s:proved=%v,refuted=%v", in.Invariant, in.Proved, in.Refuted)
	}
	return b.String()
}

// checkVerdict compares one verdict with the known answer; it returns
// "" when the verdict stands.
func checkVerdict(want bool, v verify.BatchVerdict) string {
	switch {
	case v.Error != "":
		return "verification error: " + v.Error
	case v.Unresolved > 0:
		return fmt.Sprintf("%d unresolved obligation(s): %v", v.Unresolved, v.UnresolvedCauses)
	case v.Certified != want:
		return fmt.Sprintf("certified=%v, known answer %v", v.Certified, want)
	case !v.Certified && len(v.Witnesses) == 0:
		return "refused without a witness"
	}
	return ""
}

// replay checks a verdict against the interpreter: a certified pipeline
// must forward n in-envelope packets without a crash and within
// bound_steps; a refused one must crash on every witness.
func replay(p *click.Pipeline, v verify.BatchVerdict, seed int64, n int) error {
	if v.Certified {
		r := dataplane.NewRunner(p)
		for i, buf := range envelopeMix(seed, n) {
			res := r.Process(buf)
			if res.Disposition == ir.Crashed {
				return fmt.Errorf("certified, but packet %d crashes %s on the interpreter: %s", i, res.CrashAt, res.Crash.Msg)
			}
			if res.Steps > v.BoundSteps {
				return fmt.Errorf("certified with bound %d, but packet %d takes %d steps", v.BoundSteps, i, res.Steps)
			}
		}
		return nil
	}
	for i, w := range v.Witnesses {
		data, err := hex.DecodeString(w.Packet)
		if err != nil {
			return fmt.Errorf("witness %d is not hex: %v", i, err)
		}
		r := dataplane.NewRunner(p)
		if err := seedFault(r, p); err != nil {
			return err
		}
		if res := r.Process(packet.NewBuffer(data)); res.Disposition != ir.Crashed {
			return fmt.Errorf("refused, but witness %d (%s) does not crash the interpreter", i, w.Path)
		}
	}
	return nil
}

// envelopeMix generates n packets inside the verified envelope (frame
// length within [MinFrame, maxLen]): a certificate speaks only for
// those. 70 % are well-formed IPv4 (a third of them carrying options,
// half of which are random bytes), 10 % workload.Adversarial cut to the
// envelope, 20 % uniformly random frames.
func envelopeMix(seed int64, n int) []*packet.Buffer {
	g := newGen(seed, "envelope")
	w := workload.New(workload.Spec{Seed: seed})
	out := make([]*packet.Buffer, 0, n)
	for i := 0; i < n; i++ {
		switch i % 10 {
		case 7:
			b := w.Adversarial()
			if len(b.Data) > maxLen {
				b.Data = b.Data[:maxLen]
			}
			out = append(out, b)
		case 8, 9:
			out = append(out, w.Random(maxLen))
		default:
			var opts []byte
			if g.rng.Intn(3) == 0 {
				opts = make([]byte, 4*(1+g.rng.Intn(2)))
				if g.rng.Intn(2) == 0 {
					g.rng.Read(opts)
				} else {
					for j := range opts {
						opts[j] = 1 // NOP
					}
				}
			}
			room := maxLen - packet.EthernetHeaderLen - packet.IPv4MinHeaderLen - len(opts)
			payload := make([]byte, g.rng.Intn(room+1))
			g.rng.Read(payload)
			buf, err := packet.BuildIPv4(packet.IPv4Spec{
				SrcIP: g.ip(), DstIP: g.ip(), TTL: uint8(g.rng.Intn(256)),
				Protocol: []uint8{packet.ProtoUDP, packet.ProtoTCP, packet.ProtoICMP}[g.rng.Intn(3)],
				Options:  opts, Payload: payload,
			})
			if err != nil {
				panic("benchmark: envelopeMix built an invalid spec: " + err.Error())
			}
			out = append(out, buf)
		}
	}
	return out
}

// compareTiers runs the differential oracle over a 512-packet sample
// of a forward phase's traffic: interpreter, per-packet VM and batched
// VM must agree on every observable.
func compareTiers(p *click.Pipeline, frames []*packet.Buffer) error {
	const sample = 512
	chunk := make([]*packet.Buffer, min(sample, len(frames)))
	for i := range chunk {
		chunk[i] = frames[i*len(frames)/len(chunk)].Clone()
	}
	_, err := dataplane.Compare(p, chunk)
	return err
}
