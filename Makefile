GO ?= go

.PHONY: tier1 build test race smt-loc bench bench-json benchmark benchmark-aa examples serve-smoke store-roundtrip seq-smoke chaos-smoke tput-smoke trace-smoke mtu-smoke

# tier1 is the repo's gate: everything must build, vet clean, and every
# test pass.
tier1:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race exercises the concurrent solver and the parallel verifier under
# the race detector (slow; the parallel walk tests fan out real work),
# the solver package and the concurrent recording of Step-2 certificates
# at one and two cores, and the lazy/eager walk differential, the
# concurrent builds of shared composed states and the sequence witnesses
# of replayed inductions at one, two and four.
# Three tests stay with tier1:
# each runs on one goroutine, so the detector has nothing to watch, and
# under it they take ~2, ~4 and ~2 minutes. The certificate cold/warm
# differential stays there too: it takes 45 s under the detector on the
# IPOptions router, and the last line races concurrent recording into
# one certificate table on a light pipeline.
RACE_SKIP = TestSatFuzzConeDifferential|TestFreshVerifiersAgree|TestSatFuzzAliasingDifferential|TestCertificateColdWarmDifferential
race:
	$(GO) test -race -cpu 1,2 -skip '$(RACE_SKIP)' ./internal/smt
	$(GO) test -race -skip '$(RACE_SKIP)' ./internal/verify
	$(GO) test -race -cpu 1,2 -run 'TestCertificateConcurrentRecording|TestBoundTieBreaksOnSegmentPath' ./internal/verify
	$(GO) test -race -cpu 1,2,4 -run 'TestLazyEagerDifferential|TestConcurrentBuildsShareStates|TestSeqWitnessesIndependentOfReplay' ./internal/verify

# smt-loc counts the solver's non-test lines (ROADMAP aim 2 watches it).
smt-loc:
	@ls internal/smt/*.go | grep -v _test.go | xargs wc -l | tail -1

# bench regenerates the paper's evaluation as Go benchmarks, one
# iteration each, so the checks inside them run too (CI runs it).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# examples runs every example binary end to end: they are executable
# documentation, each one log.Fatals if a proof or replay misbehaves,
# so this doubles as an integration smoke test (CI runs it).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/iprouter
	$(GO) run ./examples/natgateway
	$(GO) run ./examples/appmarket

# serve-smoke drives the vsdserve admission daemon end to end over real
# HTTP: it binds an ephemeral port, POSTs every corpus pipeline to
# itself, and fails unless all come back certified (CI runs it).
serve-smoke:
	$(GO) run ./cmd/vsdserve -smoke examples/corpus -maxlen 48 -baseline examples/corpus/router.click

# store-roundtrip is the summary-store correctness gate (DESIGN.md §7):
# the example corpus is batch-verified twice against one store
# directory. The cold run must print the committed verdicts
# (examples/corpus-verdicts.jsonl) byte for byte, so a Step-1 or Step-2
# change that moves a verdict fails here; regenerate that file only for
# a verdict change that is meant. The second run must perform ZERO
# Step-1 symbolic-engine runs (pure store hits), replay its Step-2
# walks and the NAT's
# crash-freedom induction from certificates, and print byte-identical
# verdicts. A walk or induction that sent an obligation to the solver
# would save a certificate, so the warm run must save none and make no
# Step-2 query; and replay builds no formula (DESIGN.md §7.5), so it
# must substitute no composed state. A third run batches a copy of the
# corpus whose router has other prefixes on the same ports: Step 1 sees
# a route table only through its value set (DESIGN.md §3.2), so this
# route edit must also run no engine, solve no Step-2 query, save no
# certificate, and print the cold verdicts but for the fingerprint.
STORE_CI_DIR ?= .store-ci
store-roundtrip:
	rm -rf $(STORE_CI_DIR) && mkdir -p $(STORE_CI_DIR)
	$(GO) run ./cmd/vsdverify -batch examples/corpus -maxlen 48 \
		-store $(STORE_CI_DIR)/store -batch-stats $(STORE_CI_DIR)/cold.json > $(STORE_CI_DIR)/cold.jsonl
	diff examples/corpus-verdicts.jsonl $(STORE_CI_DIR)/cold.jsonl
	$(GO) run ./cmd/vsdverify -batch examples/corpus -maxlen 48 \
		-store $(STORE_CI_DIR)/store -batch-stats $(STORE_CI_DIR)/warm.json > $(STORE_CI_DIR)/warm.jsonl
	diff $(STORE_CI_DIR)/cold.jsonl $(STORE_CI_DIR)/warm.jsonl
	grep -q '"elements_summarized": 0,' $(STORE_CI_DIR)/warm.json
	! grep -q '"store_hits": 0,' $(STORE_CI_DIR)/warm.json
	! grep -q '"stitches_replayed": 0,' $(STORE_CI_DIR)/warm.json
	grep -q '"cert_saves": 0,' $(STORE_CI_DIR)/warm.json
	grep -q '"step2_queries": 0,' $(STORE_CI_DIR)/warm.json
	grep -q '"stitches_built": 0,' $(STORE_CI_DIR)/warm.json
	cp -r examples/corpus $(STORE_CI_DIR)/edit
	sed -i 's|LookupIPRoute(10.0.0.0/8 0, 192.168.0.0/16 1, 0.0.0.0/0 2)|LookupIPRoute(172.16.0.0/12 0, 10.1.0.0/16 1, 0.0.0.0/0 2)|' $(STORE_CI_DIR)/edit/router.click
	grep -q '172.16.0.0/12 0, 10.1.0.0/16 1' $(STORE_CI_DIR)/edit/router.click
	$(GO) run ./cmd/vsdverify -batch $(STORE_CI_DIR)/edit -maxlen 48 \
		-store $(STORE_CI_DIR)/store -batch-stats $(STORE_CI_DIR)/edit.json > $(STORE_CI_DIR)/edit.jsonl
	sed 's/"fingerprint":"[0-9a-f]*"//' $(STORE_CI_DIR)/cold.jsonl > $(STORE_CI_DIR)/cold.nofp
	sed 's/"fingerprint":"[0-9a-f]*"//' $(STORE_CI_DIR)/edit.jsonl > $(STORE_CI_DIR)/edit.nofp
	diff $(STORE_CI_DIR)/cold.nofp $(STORE_CI_DIR)/edit.nofp
	! diff -q $(STORE_CI_DIR)/cold.jsonl $(STORE_CI_DIR)/edit.jsonl > /dev/null
	grep -q '"elements_summarized": 0,' $(STORE_CI_DIR)/edit.json
	grep -q '"step2_queries": 0,' $(STORE_CI_DIR)/edit.json
	grep -q '"cert_saves": 0,' $(STORE_CI_DIR)/edit.json
	@echo "store-roundtrip: warm run identical, zero engine runs, no stitch or sequence extension solved, no state built; route edit re-solved nothing"

# seq-smoke is the multi-packet verification gate (DESIGN.md §8): the
# k-induction must PROVE the saturating counter crash-free for packet
# sequences of UNBOUNDED length, and must refuse to certify the plain
# counter — whose overflow no affordable unrolling depth can reach —
# with a 2-packet counterexample whose replay on the concrete dataplane
# reproduces the crash byte for byte (CI runs it).
SEQ_CI_DIR ?= .seq-ci
seq-smoke:
	rm -rf $(SEQ_CI_DIR) && mkdir -p $(SEQ_CI_DIR)
	$(GO) run ./cmd/vsdverify -property crash -seq 2 -invariant -maxlen 48 \
		examples/seq/counter-saturate.click > $(SEQ_CI_DIR)/sat.out
	grep -q 'PROVED for UNBOUNDED' $(SEQ_CI_DIR)/sat.out
	! $(GO) run ./cmd/vsdverify -property crash -seq 2 -invariant -maxlen 48 \
		examples/seq/counter-overflow.click > $(SEQ_CI_DIR)/ovf.out
	grep -q 'counterexample to induction' $(SEQ_CI_DIR)/ovf.out
	grep -q 'sequence: 2 packet(s)' $(SEQ_CI_DIR)/ovf.out
	grep -q 'replay: the sequence reproduces byte-for-byte' $(SEQ_CI_DIR)/ovf.out
	@echo "seq-smoke: induction proved the saturating counter and refuted the plain one with a replayed 2-packet witness"

# chaos-smoke is the robustness gate (DESIGN.md §9): a fixed-seed
# fault-injection run over the example corpus through the full service
# stack — clean pass, faulted pass (durable queue, retries, contained
# panics) with a resubmission round answered from the logged verdicts,
# and a simulated kill -9 replay — asserting zero daemon
# crashes and zero verdict flips; plus the crash-safety and watchdog
# tests under the race detector (CI runs it).
CHAOS_SEED ?= 0xc0ffee
chaos-smoke:
	$(GO) run ./cmd/vsdserve -chaos examples/corpus -chaos-seed $(CHAOS_SEED) -maxlen 48
	$(GO) test -race ./internal/queue ./internal/faultinject
	$(GO) test -race ./internal/verify -run 'Panic|Watchdog|DiskStore'
	@echo "chaos-smoke: zero crashes, zero verdict flips, journal replay converged (seed $(CHAOS_SEED))"

# tput-smoke is the compiled-dataplane gate (DESIGN.md §10): both
# execution tiers forward the same fixed-seed traces through every
# corpus pipeline with the differential oracle demanding identical
# dispositions, egress, bytes, meta, state, and step counts; the
# compile-tier unit tests (step parity, optimizer soundness,
# definitely-assigned analysis) re-run under the race detector, which
# also exercises ProcessBatch's frame pooling for races (CI runs it).
TPUT_SEED ?= 2009
tput-smoke:
	$(GO) run ./cmd/vsdrun -compare -n 20000 -seed $(TPUT_SEED) examples/corpus/router.click
	$(GO) run ./cmd/vsdrun -compare -n 20000 -seed $(TPUT_SEED) -workload adversarial examples/corpus/nat.click
	$(GO) test -race ./internal/dataplane/... -run 'Compare|Compiled|Parity|DefAssign|Batch'
	@echo "tput-smoke: interpreter and compiled VM agreed on every observable (seed $(TPUT_SEED))"

# trace-smoke is the observability gate (DESIGN.md §11): a corpus
# verification is traced end to end, the emitted Chrome trace-event
# JSON must validate (balanced spans, per-obligation SAT events), the
# obligation profiler must render, and the vsdserve smoke re-runs to
# assert /metrics, /stats latency percentiles, and /debug/pprof answer
# (CI runs it).
TRACE_CI_DIR ?= .trace-ci
trace-smoke:
	rm -rf $(TRACE_CI_DIR) && mkdir -p $(TRACE_CI_DIR)
	$(GO) run ./cmd/vsdverify -property crash -maxlen 48 -profile \
		-trace $(TRACE_CI_DIR)/router.trace.json examples/corpus/router.click > $(TRACE_CI_DIR)/verify.out
	$(GO) run ./cmd/vsdverify -validate-trace $(TRACE_CI_DIR)/router.trace.json
	grep -q 'obligation profile:' $(TRACE_CI_DIR)/verify.out
	grep -q '"solve:' $(TRACE_CI_DIR)/router.trace.json
	$(GO) run ./cmd/vsdserve -smoke examples/corpus -maxlen 48 > $(TRACE_CI_DIR)/serve.out
	grep -q '/metrics, /stats, and /debug/pprof answered' $(TRACE_CI_DIR)/serve.out
	@echo "trace-smoke: trace validated, obligation profile rendered, metrics endpoints answered"

# mtu-smoke is the MTU gate (DESIGN.md §4.4): router crash freedom at
# the Ethernet MTU (maxlen 1514) on one worker must be VERIFIED, and the
# chk -> opt stitch — the paper's central argument, that IPOptions reads
# safely because CheckIPHeader checked the header length against the
# packet length — must be refuted by the order pass, with no refutation
# left to the SAT core (the profile row's CORE-UNSAT is 0 and its ORDER
# at least 1). The run's CNF must also stay small: the solver's CNFVars
# (-stats) must not exceed 71 000, about 10 % above the 64 382 variables
# the run blasts with majority/parity adders (DESIGN.md §4.1) and one
# session per stitch query (§7.5), so a change that inflates the
# encoding again fails here. It gates counts, not the clock (CI runs
# it).
MTU_CI_DIR ?= .mtu-ci
mtu-smoke:
	rm -rf $(MTU_CI_DIR) && mkdir -p $(MTU_CI_DIR)
	$(GO) run ./cmd/vsdverify -property crash -maxlen 1514 -parallel 1 -stats -profile -profile-top 1000 \
		examples/corpus/router.click > $(MTU_CI_DIR)/verify.out
	grep -q 'crash freedom: VERIFIED' $(MTU_CI_DIR)/verify.out
	awk '/ -> chk\[0\] -> opt$$/ { n++; if ($$4 != 0 || $$5 < 1) bad++ } END { exit !(n > 0 && bad == 0) }' $(MTU_CI_DIR)/verify.out
	awk 'match($$0, /CNFVars:[0-9]+/) { n++; v = substr($$0, RSTART + 8, RLENGTH - 8) + 0; print "mtu-smoke: " v " CNF variables (ceiling 71000)"; if (v > 71000) bad++ } END { exit !(n == 1 && bad == 0) }' $(MTU_CI_DIR)/verify.out
	@echo "mtu-smoke: router crash-free at maxlen 1514; the order pass refuted the chk -> opt stitch, the SAT core refuted none of it; CNF within its ceiling"

# bench-json records the benchmark trajectory: one BENCH_<n>.json per
# PR, so regressions are visible across the history. Name the next
# snapshot with BENCH_OUT; a committed record is never overwritten.
bench-json:
	@test -n "$(BENCH_OUT)" || { echo "bench-json: set BENCH_OUT=BENCH_<n>.json (the next snapshot)" >&2; exit 1; }
	@test ! -e "$(BENCH_OUT)" || { echo "bench-json: $(BENCH_OUT) exists; records are not overwritten" >&2; exit 1; }
	$(GO) run ./cmd/vsdbench -json > $(BENCH_OUT).tmp && mv $(BENCH_OUT).tmp $(BENCH_OUT)

# benchmark runs one workload of the repo benchmark (BENCHMARK.json,
# benchmark/README.md): certify-cold, certify-warm, serve-mixed or
# forward. TRACE=1 gives the per-layer run. benchmark-aa runs the
# benchmark against itself, the noise floor a claimed gain must clear.
WORKLOAD ?= serve-mixed
SEED ?= 2013
TRACE ?= 0
benchmark:
	$(GO) run ./benchmark --workload $(WORKLOAD) --seed $(SEED) --trace $(TRACE)

benchmark-aa:
	$(GO) run ./benchmark --aa --seed $(SEED)
