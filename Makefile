# Developer entry points.  PYTHONPATH=src is the repo's import contract
# (see ROADMAP.md "Tier-1 verify").

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: lint test test-fast bench bench-smoke check profile loc

## Invariant lint: the six AST passes in repro.analysis (builtin-hash
## routing, decision-path determinism, guarded-by lock discipline,
## future settlement discipline, bare asserts, no collector tuning in
## the serving packages) over the whole src tree.
## A clean tree is a hard gate: first leg of `make check` and of CI.
lint:
	PYTHONPATH=src python -m repro.analysis

## Full tier-1 suite: unit + property + integration + figure benchmarks.
test:
	$(PYTEST) -x -q

## Fast inner loop: skips the @slow tests (the ~90 s figure benchmarks
## in benchmarks/ and the heavy stress sweeps).
test-fast:
	$(PYTEST) -m "not slow" -q

## Figure benchmarks only, with their printed tables/charts.  Full
## runs also record() their headline ratios — to BENCH_full.json by
## default (uncommitted, see .gitignore: full-run numbers are
## hardware-bound; BENCH_smoke.json stays the committed drift guard).
bench:
	rm -f BENCH_full.json
	REPRO_BENCH_SNAPSHOT=$${REPRO_BENCH_SNAPSHOT:-BENCH_full.json} $(PYTEST) benchmarks -q -s

## Fast perf sanity check: the E17-E24 hot-path/HA bars at tiny sizes
## (REPRO_BENCH_SMOKE relaxes the bars accordingly), plus E21's
## cross-partition fractions under hash, range and directory placement
## (the partitioned engine's single/cross tallies).  Writes the
## headline ratios per experiment to BENCH_smoke.json (the snapshot is
## committed, so behaviour drifts show up as a diff).  Runs in a few
## seconds.  `make test-fast` skips every figure benchmark (the
## benchmarks conftest marks them @slow) but does run the end-to-end
## harness's smoke test, benchmarks/e2e/test_e2e_smoke.py.
bench-smoke:
	rm -f BENCH_smoke.json
	REPRO_BENCH_SMOKE=1 REPRO_BENCH_SNAPSHOT=BENCH_smoke.json $(PYTEST) \
		benchmarks/test_e17_group_commit.py::test_e17_group_commit_speedup \
		benchmarks/test_e18_batch_decide.py::test_e18_batch_decide_speedup \
		benchmarks/test_e20_begin_lease.py::test_e20_begin_lease_speedup \
		benchmarks/test_e21_sharding_locality.py \
		benchmarks/test_e22_failover.py \
		benchmarks/test_e23_engine_shootout.py \
		benchmarks/test_e24_array_lastcommit.py::test_e24_array_backend_speedup \
		benchmarks/test_e24_array_lastcommit.py::test_e24_memory_footprint \
		-q -s

## The fast suite twice under two different hash salts: routing (shard
## and block placement) must be identical regardless of PYTHONHASHSEED,
## so any decision or stat that silently depended on builtin str/bytes
## hashing fails one of the two runs.
## The begin/recover no-reuse pins and the HA failover pins (warm
## takeover, crash-mid-batch retry, no timestamp reuse across leaders,
## standbys tailing every sync)
## ride in every salted run; the explicit last pair keeps them covered
## even if the fast-suite marker set ever changes, together with the
## WAL-replay pins (cold recovery, and the apply kernel against the
## per-decision rule it replaced).
## Finally the REPRO_ENGINE axis: the serving-stack suites (engines,
## server, sim, coord) once per non-default commit protocol, so the
## batched/HA/sim layers stay protocol-agnostic — every entry point
## that defaults engine=None resolves through the variable.  Tests
## that assert oracle-specific semantics (last_commit probes, WSI
## conflict outcomes) pin engine="oracle" and ride along unchanged.
## The REPRO_LASTCOMMIT=array leg runs the whole fast suite with every
## oracle built without an explicit lastcommit= re-backed onto the
## array store (repro.core.lastcommit: the dict store plus a gatherable
## timestamp lane for wide int row sets) — representation is
## performance policy, never semantics, so the suite must stay green
## verbatim (the hypothesis pins in test_equivalence_properties.py
## additionally require bit-identical decisions and replay).
check:
	$(MAKE) lint
	PYTHONHASHSEED=0 $(PYTEST) -m "not slow" -q
	PYTHONHASHSEED=31337 $(PYTEST) -m "not slow" -q
	REPRO_LASTCOMMIT=array PYTHONHASHSEED=0 $(PYTEST) -m "not slow" -q
	REPRO_ENGINE=percolator PYTHONHASHSEED=0 $(PYTEST) -m "not slow" -q \
		tests/engines tests/server tests/sim tests/coord
	REPRO_ENGINE=ssi PYTHONHASHSEED=0 $(PYTEST) -m "not slow" -q \
		tests/engines tests/server tests/sim tests/coord
	PYTHONHASHSEED=0 $(PYTEST) -q \
		tests/core/test_timestamps.py tests/server/test_frontend_recovery.py \
		tests/server/test_failover.py tests/server/test_ha.py \
		tests/server/test_standby_tailing.py \
		tests/integration/test_recovery.py tests/property/test_wal_apply_kernel.py
	PYTHONHASHSEED=31337 $(PYTEST) -q \
		tests/core/test_timestamps.py tests/server/test_frontend_recovery.py \
		tests/server/test_failover.py tests/server/test_ha.py \
		tests/server/test_standby_tailing.py \
		tests/integration/test_recovery.py tests/property/test_wal_apply_kernel.py

## cProfile the batch-decide frontend microbench and print the top-20
## functions by cumulative time (where the critical section spends it),
## then the E24-shaped batch-128 attribution of the array lastCommit
## backend: cumulative time per phase (keys / lane gather + compare /
## install) plus the measured bytes/entry of both backends, then the
## cyclic collector's share of a session-driven batch-32 run whose
## caller keeps its futures: seconds per generation (gc.callbacks —
## cProfile cannot see them) and the tracked objects the run left behind.
## Last, the transactional client's side (the `txn-mixed` path): 200 k
## preloaded rows, the zipfian mixed workload interleaved 16 wide
## through TransactionManager; us per begin / read / write / commit,
## reads and writes per transaction, versions examined per read and the
## abort rate — the traffic a change to the read path is sized against.
## Then the recovery path: a batch-32 group-commit log built through the
## real OracleFrontend, replayed cold (recover_from) and by a warm
## standby's catch_up; us per replayed decision and decisions per record.
profile:
	PYTHONPATH=src python -m repro.bench.frontend_bench --profile
	PYTHONPATH=src python -m repro.bench.frontend_bench --profile-e24
	PYTHONPATH=src python -m repro.bench.frontend_bench --profile-gc
	PYTHONPATH=src python -m repro.bench.harness --profile-txn
	PYTHONPATH=src python -m repro.bench.harness --profile-recovery

## Lines of Python in src/repro per package, plus the total: the
## "lines removed from src/ at equal bars" metric of ROADMAP aim 2.
loc:
	@for pkg in $$(find src/repro -mindepth 1 -maxdepth 1 -type d ! -name __pycache__ | sort); do \
		printf '%-22s %6s\n' "$${pkg#src/}" "$$(find $$pkg -name '*.py' -exec cat {} + | wc -l)"; \
	done
	@printf '%-22s %6s\n' "repro (top level)" "$$(cat src/repro/*.py | wc -l)"
	@printf '%-22s %6s\n' total "$$(find src/repro -name '*.py' -exec cat {} + | wc -l)"
