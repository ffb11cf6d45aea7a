# One-command tier-1 verification: full build, the whole test suite,
# a short smoke run of the audit-throughput bench, an end-to-end
# observability smoke (record, audit with --metrics, assert counters),
# and the fault-vs-verdict sweep.

.PHONY: verify build test bench-smoke bench obs-smoke evidence-smoke fault-smoke crypto-smoke backend-crosscheck fleet-smoke fleet-bench dedup-smoke dedup-bench service-smoke service-bench equiv-smoke equiv-bench bench-check loc clean

verify: build test bench-smoke obs-smoke evidence-smoke fault-smoke crypto-smoke backend-crosscheck fleet-smoke dedup-smoke service-smoke equiv-smoke bench-check

build:
	dune build

test:
	dune runtest

# Two passes: sequential and 4-way parallel. The bench exits non-zero
# (failing this target) whenever any verdict cross-check — list vs
# segment, sequential vs parallel syntactic pass, honest vs tampered —
# mismatches. The semantic pass is one sequential replay at any job
# count, so only the syntactic pass has a parallel arm to time.
# Smoke artifacts land under _build/ so an interrupted run never
# strands a stray file in the repo root.
bench-smoke:
	@mkdir -p _build
	dune exec bench/audit_bench.exe -- --smoke --jobs 1 --out _build/BENCH_audit.smoke.json
	dune exec bench/audit_bench.exe -- --smoke --jobs 4 --out _build/BENCH_audit.smoke.json
	@cat _build/BENCH_audit.smoke.json

# Full bench runs (slow): refreshes the committed BENCH_audit.json.
bench:
	dune exec bench/audit_bench.exe -- --out BENCH_audit.json

# Record a short session, audit it sequentially and in parallel with
# --metrics, and assert the snapshot parses with nonzero core counters
# and at least one per-chunk audit span. The session runs past the
# first snapshot (taken every 10 virtual seconds), so replay checks a
# state digest through the page-hash cache (memory.pages_hashed).
# replay.kernel_stops shows replay ran on the run-to-event kernel, and
# replay.instructions that the kernel executed guest instructions.
# audit.recv_signatures_verified shows that both the sequential and
# the stitched parallel pass verify RECV signatures in the stream.
# Both job counts must reach the same (clean) verdict.
obs-smoke:
	dune exec bin/avm_run.exe -- --players 2 --seconds 12 --seed 5 --out obs_smoke_recordings
	dune exec bin/avm_audit.exe -- --jobs 1 --metrics obs_smoke_j1.json obs_smoke_recordings/player0.avmrec
	dune exec bin/avm_audit.exe -- --jobs 4 --metrics obs_smoke_j4.json obs_smoke_recordings/player0.avmrec
	dune exec bin/avm_obs_check.exe -- obs_smoke_j1.json \
	  --counter audit.entries_checked --counter log.segments_sealed \
	  --counter replay.entries_fed --counter memory.pages_hashed \
	  --counter audit.links_trusted --counter replay.kernel_stops --counter replay.instructions \
	  --counter audit.recv_signatures_verified \
	  --span audit.chunk --span audit.semantic
	dune exec bin/avm_obs_check.exe -- obs_smoke_j4.json \
	  --counter audit.entries_checked --counter log.segments_sealed \
	  --counter replay.entries_fed --counter memory.pages_hashed \
	  --counter audit.links_trusted --counter replay.kernel_stops --counter replay.instructions \
	  --counter audit.recv_signatures_verified \
	  --span audit.chunk --span audit.semantic
	rm -rf obs_smoke_recordings obs_smoke_j1.json obs_smoke_j4.json

# One audit engine (DESIGN.md §25) and signed evidence (DESIGN.md §29):
# record a game with a cheater, audit the cheater in batch and online
# mode, each writing evidence, and have a third party confirm that both
# evidence files describe a replay divergence (a signed chunk, not a
# challenge); the batch evidence must be at most a third of the
# cheater's recording. The honest player must audit CORRECT in both
# modes. avm_audit exits 1 on a FAULTY verdict, which is what the
# cheater's audits must give. Artifacts land under _build/.
EVIDENCE_SMOKE := _build/evidence_smoke
evidence-smoke:
	@rm -rf $(EVIDENCE_SMOKE) && mkdir -p $(EVIDENCE_SMOKE)
	dune exec bin/avm_run.exe -- --cheat bigclip --cheater 1 --out $(EVIDENCE_SMOKE)
	dune exec bin/avm_audit.exe -- $(EVIDENCE_SMOKE)/player1.avmrec \
	  --evidence $(EVIDENCE_SMOKE)/batch.ev; test $$? -eq 1
	dune exec bin/avm_audit.exe -- --online $(EVIDENCE_SMOKE)/player1.avmrec \
	  --evidence $(EVIDENCE_SMOKE)/online.ev; test $$? -eq 1
	for ev in batch online; do \
	  dune exec bin/avm_audit.exe -- --check-evidence $(EVIDENCE_SMOKE)/$$ev.ev \
	    $(EVIDENCE_SMOKE)/player1.avmrec > $(EVIDENCE_SMOKE)/$$ev.check || exit 1; \
	  cat $(EVIDENCE_SMOKE)/$$ev.check; \
	  grep -q '^checking evidence against player1: DIVERGED' $(EVIDENCE_SMOKE)/$$ev.check || exit 1; \
	  grep -q '^CONFIRMED' $(EVIDENCE_SMOKE)/$$ev.check || exit 1; \
	done
	@ev=$$(wc -c < $(EVIDENCE_SMOKE)/batch.ev); rec=$$(wc -c < $(EVIDENCE_SMOKE)/player1.avmrec); \
	  echo "batch.ev $$ev bytes, player1.avmrec $$rec bytes"; test $$((3 * ev)) -le $$rec
	dune exec bin/avm_audit.exe -- $(EVIDENCE_SMOKE)/player0.avmrec
	dune exec bin/avm_audit.exe -- --online $(EVIDENCE_SMOKE)/player0.avmrec

# Crypto hot path (DESIGN.md §12): the FIPS/RFC vector + Montgomery
# equivalence + sig-cache test suite, then the crypto bench's verdict
# cross-check — a tampered log audited at jobs {1,4} with the
# signature cache {on,off} must yield four identical failing reports
# (the bench exits non-zero otherwise).
crypto-smoke:
	@mkdir -p _build
	dune exec test/test_crypto.exe
	dune exec bench/crypto_bench.exe -- --smoke --out _build/BENCH_crypto.smoke.json
	@cat _build/BENCH_crypto.smoke.json

# Backend equivalence (DESIGN.md §17): a batch of honest and tampered
# logs audited under the optimized Default crypto backend and the
# naive from-spec Reference backend must produce byte-identical
# reports; exits non-zero on any disagreement.
backend-crosscheck:
	dune exec bin/avm_backend_check.exe

# Sweep the seeded fault schedules (loss, duplication, reordering,
# corruption, partition+crash) over an honest and a cheating session;
# exits non-zero if any schedule changes any auditor's verdict
# relative to the fault-free baseline.
fault-smoke:
	dune exec bin/avm_fault_sweep.exe -- --seconds 3

# The fleet-shaped scenarios (DESIGN.md §28) all run through one
# driver, avm_bench <scenario>: it runs the scenario's spec and then
# its twin, and exits non-zero on any breach Fleet_harness.check
# names — a planted cheat not flagged by the end of its own epoch, an
# honest node flagged, an epoch below 100% witness coverage, a twin
# whose verdict signature differs, a daemon session left undrained,
# p99 lag above the bound, an equivocation proof that fails
# standalone. Smoke reports land under _build/; the *-bench targets
# refresh the committed BENCH_<scenario>.json.

# Fleet-scale witness auditing (DESIGN.md §13): 200 event-driven nodes
# for 3 epochs on the witness-graph topology over a lossy wire, with a
# cheating minority; the twin runs the auditor at jobs 4.
fleet-smoke:
	@mkdir -p _build
	dune exec bin/avm_bench.exe -- fleet --smoke --out _build/BENCH_fleet.smoke.json

# Full 10k-node fleet bench: refreshes the committed BENCH_fleet.json.
fleet-bench:
	dune exec bin/avm_bench.exe -- fleet

# Deduplicated re-execution (DESIGN.md §14): a 300-node fleet audited
# with the replay cache, then without it; the verdict signatures must
# be byte-identical and the cached run must hit.
dedup-smoke:
	@mkdir -p _build
	dune exec bin/avm_bench.exe -- dedup --smoke --out _build/BENCH_dedup.smoke.json

# Full dedup bench: refreshes the committed BENCH_dedup.json.
dedup-bench:
	dune exec bin/avm_bench.exe -- dedup

# Auditor-as-a-service (DESIGN.md §15): 50 live sessions streamed into
# one daemon with a cheating minority poked (or log-rewritten)
# mid-session; every session must drain, and the twin pumps at jobs 4.
# The twin's metrics snapshot is then asserted on: the service gauges
# must be present and the p99 lag gauge within the bound.
service-smoke:
	@mkdir -p _build
	dune exec bin/avm_bench.exe -- service --smoke --out _build/BENCH_service.smoke.json \
	  --metrics _build/service_smoke.json
	dune exec bin/avm_obs_check.exe -- _build/service_smoke.json \
	  --counter service.entries_ingested --counter service.verdicts \
	  --gauge service.sessions --gauge-max service.lag_entries_p99:4096

# Full service bench: refreshes the committed BENCH_service.json.
service-bench:
	dune exec bin/avm_bench.exe -- service

# Equivocation detection (DESIGN.md §16): forking nodes show half their
# witnesses one signed commitment and half another; the cross-witness
# exchange must catch every forker within its own fork epoch, with a
# proof that verifies standalone via check_evidence.
equiv-smoke:
	@mkdir -p _build
	dune exec bin/avm_bench.exe -- equiv --smoke --out _build/BENCH_equiv.smoke.json

# Full equivocation bench: refreshes the committed BENCH_equiv.json.
equiv-bench:
	dune exec bin/avm_bench.exe -- equiv

# Validate the committed BENCH_*.json artifacts: each must parse and
# carry its required keys with nonzero rates.
bench-check:
	dune exec bin/avm_bench_check.exe

# Source size ROADMAP tracks: .ml + .mli line totals of lib/ and lib/core,
# and the C kernels' lines in lib/ beside them, so a fall in lib/ that
# only moved code into C shows.
loc:
	@printf 'lib/      %6d  (.ml + .mli)\n' $$(cat $$(find lib -name '*.ml' -o -name '*.mli') | wc -l)
	@printf 'lib/ C    %6d  (.c)\n' $$(cat $$(find lib -name '*.c') | wc -l)
	@printf 'lib/core  %6d\n' $$(cat lib/core/*.ml lib/core/*.mli | wc -l)

clean:
	dune clean
