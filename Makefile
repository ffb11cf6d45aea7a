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
# Both job counts must reach the same (clean) verdict.
obs-smoke:
	dune exec bin/avm_run.exe -- --players 2 --seconds 12 --seed 5 --out obs_smoke_recordings
	dune exec bin/avm_audit.exe -- --jobs 1 --metrics obs_smoke_j1.json obs_smoke_recordings/player0.avmrec
	dune exec bin/avm_audit.exe -- --jobs 4 --metrics obs_smoke_j4.json obs_smoke_recordings/player0.avmrec
	dune exec bin/avm_obs_check.exe -- obs_smoke_j1.json \
	  --counter audit.entries_checked --counter log.segments_sealed \
	  --counter replay.entries_fed --counter memory.pages_hashed \
	  --counter audit.links_trusted --counter replay.kernel_stops --counter replay.instructions \
	  --span audit.chunk --span audit.semantic
	dune exec bin/avm_obs_check.exe -- obs_smoke_j4.json \
	  --counter audit.entries_checked --counter log.segments_sealed \
	  --counter replay.entries_fed --counter memory.pages_hashed \
	  --counter audit.links_trusted --counter replay.kernel_stops --counter replay.instructions \
	  --span audit.chunk --span audit.semantic
	rm -rf obs_smoke_recordings obs_smoke_j1.json obs_smoke_j4.json

# One audit engine (DESIGN.md §25): record a game with a cheater, audit
# the cheater in batch and online mode, each writing evidence, and have
# a third party confirm both evidence files; the honest player must
# audit CORRECT in both modes. avm_audit exits 1 on a FAULTY verdict,
# which is what the cheater's audits must give. Artifacts land under
# _build/.
EVIDENCE_SMOKE := _build/evidence_smoke
evidence-smoke:
	@rm -rf $(EVIDENCE_SMOKE) && mkdir -p $(EVIDENCE_SMOKE)
	dune exec bin/avm_run.exe -- --cheat bigclip --cheater 1 --out $(EVIDENCE_SMOKE)
	dune exec bin/avm_audit.exe -- $(EVIDENCE_SMOKE)/player1.avmrec \
	  --evidence $(EVIDENCE_SMOKE)/batch.ev; test $$? -eq 1
	dune exec bin/avm_audit.exe -- --online $(EVIDENCE_SMOKE)/player1.avmrec \
	  --evidence $(EVIDENCE_SMOKE)/online.ev; test $$? -eq 1
	dune exec bin/avm_audit.exe -- --check-evidence $(EVIDENCE_SMOKE)/batch.ev \
	  $(EVIDENCE_SMOKE)/player1.avmrec | grep CONFIRMED
	dune exec bin/avm_audit.exe -- --check-evidence $(EVIDENCE_SMOKE)/online.ev \
	  $(EVIDENCE_SMOKE)/player1.avmrec | grep CONFIRMED
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

# Fleet-scale witness auditing (DESIGN.md §13): 200 event-driven nodes
# for 3 epochs on the witness-graph topology, with a cheating minority.
# The binary exits non-zero unless every epoch reaches 100% witness
# coverage, every planted cheat is detected with zero false flags, and
# the verdict vector is identical at auditor jobs 1 and 4.
fleet-smoke:
	dune exec bin/avm_fleet.exe -- --nodes 200 --epochs 3

# Full 10k-node fleet bench (slow): refreshes the committed BENCH_fleet.json.
fleet-bench:
	dune exec bench/fleet_bench.exe -- --out BENCH_fleet.json

# Deduplicated re-execution (DESIGN.md §14): a small fleet audited
# twice from the same seed, cache off then on. The bench exits
# non-zero unless the two verdict vectors are byte-identical, every
# planted cheat is detected in both passes, and the cache-on pass
# actually hits (hit rate > 0).
dedup-smoke:
	@mkdir -p _build
	dune exec bench/dedup_bench.exe -- --smoke --out _build/BENCH_dedup.smoke.json
	@cat _build/BENCH_dedup.smoke.json

# Full dedup bench (slow): refreshes the committed BENCH_dedup.json.
dedup-bench:
	dune exec bench/dedup_bench.exe -- --out BENCH_dedup.json

# Auditor-as-a-service (DESIGN.md §15): 50 live sessions streamed
# into one daemon with a cheating minority poked (or log-rewritten)
# mid-session. The binary exits non-zero unless every planted cheat
# is detected before its session closes, no honest session is
# flagged, p99 audit lag stays within the bound, and the verdict
# vector is identical at pump jobs 1 and 4. The metrics snapshot is
# then asserted on: the service gauges must be present and the p99
# lag gauge within the bound.
# The metrics snapshot lands under _build/ so a failing check never
# strands a stray artifact in the repo root (no cleanup step to skip).
service-smoke:
	@mkdir -p _build
	dune exec bin/avm_auditord.exe -- --sessions 50 --epochs 3 --max-lag 4096 \
	  --check-jobs 4 --metrics _build/service_smoke.json
	dune exec bin/avm_obs_check.exe -- _build/service_smoke.json \
	  --counter service.entries_ingested --counter service.verdicts \
	  --gauge service.sessions --gauge-max service.lag_entries_p99:4096

# Full service bench (slow): refreshes the committed BENCH_service.json.
service-bench:
	dune exec bench/service_bench.exe -- --out BENCH_service.json

# Equivocation detection (DESIGN.md §16): plant forking nodes that
# show half their witnesses one signed commitment and half another;
# the binary exits non-zero unless the cross-witness exchange catches
# every forker within its own fork epoch with zero false flags, every
# proof verifies standalone via check_evidence, and the verdict+proof
# signature is identical at auditor jobs 1 and 4.
equiv-smoke:
	dune exec bin/avm_equiv.exe -- --nodes 60 --epochs 3

# Full equivocation bench (slow): refreshes the committed BENCH_equiv.json.
equiv-bench:
	dune exec bench/equiv_bench.exe -- --out BENCH_equiv.json

# Validate the committed BENCH_*.json artifacts: each must parse and
# carry its required keys with nonzero rates.
bench-check:
	dune exec bin/avm_bench_check.exe

# Source size ROADMAP tracks: .ml + .mli line totals of lib/ and lib/core.
loc:
	@printf 'lib/      %6d\n' $$(cat $$(find lib -name '*.ml' -o -name '*.mli') | wc -l)
	@printf 'lib/core  %6d\n' $$(cat lib/core/*.ml lib/core/*.mli | wc -l)

clean:
	dune clean
