# Developer entry points.  PYTHONPATH=src is the repo's import contract
# (see ROADMAP.md "Tier-1 verify").

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: lint test test-fast bench bench-smoke check profile

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
## (REPRO_BENCH_SMOKE relaxes the bars accordingly).  Writes the
## headline ratios per experiment to BENCH_smoke.json (the snapshot is
## committed, so behaviour drifts show up as a diff).  Runs in a few
## seconds; `make test-fast` still skips the benchmarks directory
## entirely (its conftest marks every figure benchmark @slow).
bench-smoke:
	rm -f BENCH_smoke.json
	REPRO_BENCH_SMOKE=1 REPRO_BENCH_SNAPSHOT=BENCH_smoke.json $(PYTEST) \
		benchmarks/test_e17_group_commit.py::test_e17_group_commit_speedup \
		benchmarks/test_e18_batch_decide.py::test_e18_batch_decide_speedup \
		benchmarks/test_e19_cross_partition_batch.py::test_e19_cross_partition_batch_speedup \
		benchmarks/test_e20_begin_lease.py::test_e20_begin_lease_speedup \
		benchmarks/test_e21_parallel_partitions.py::test_e21_parallel_executor_speedup \
		benchmarks/test_e22_failover.py \
		benchmarks/test_e23_engine_shootout.py \
		benchmarks/test_e24_array_lastcommit.py::test_e24_array_backend_speedup \
		benchmarks/test_e24_array_lastcommit.py::test_e24_memory_footprint \
		-q -s

## The fast suite twice under two different hash salts: routing (shard
## and block placement) must be identical regardless of PYTHONHASHSEED,
## so any decision or stat that silently depended on builtin str/bytes
## hashing fails one of the two runs.  Then the same two salted runs
## again with REPRO_EXECUTOR=parallel, which makes every partitioned
## oracle built without an explicit executor= fan its protocol rounds
## over a thread pool — the threaded path must stay green under both
## salts (executor choice is performance policy, never semantics).
## The begin/recover no-reuse pins and the HA failover pins (warm
## takeover, crash-mid-batch retry, no timestamp reuse across leaders)
## ride in every salted run; the explicit last pair keeps them covered
## even if the fast-suite marker set ever changes.
## Finally the REPRO_ENGINE axis: the serving-stack suites (engines,
## server, sim, coord) once per non-default commit protocol, so the
## batched/HA/sim layers stay protocol-agnostic — every entry point
## that defaults engine=None resolves through the variable.  Tests
## that assert oracle-specific semantics (last_commit probes, WSI
## conflict outcomes) pin engine="oracle" and ride along unchanged.
## The REPRO_LASTCOMMIT=array leg runs the whole fast suite with every
## oracle built without an explicit lastcommit= re-backed onto the
## interned-array store (repro.core.lastcommit) — representation is
## performance policy, never semantics, so the suite must stay green
## verbatim (the hypothesis pins in test_equivalence_properties.py
## additionally require bit-identical decisions and replay).
check:
	$(MAKE) lint
	PYTHONHASHSEED=0 $(PYTEST) -m "not slow" -q
	PYTHONHASHSEED=31337 $(PYTEST) -m "not slow" -q
	REPRO_LASTCOMMIT=array PYTHONHASHSEED=0 $(PYTEST) -m "not slow" -q
	REPRO_EXECUTOR=parallel PYTHONHASHSEED=0 $(PYTEST) -m "not slow" -q
	REPRO_EXECUTOR=parallel PYTHONHASHSEED=31337 $(PYTEST) -m "not slow" -q
	REPRO_ENGINE=percolator PYTHONHASHSEED=0 $(PYTEST) -m "not slow" -q \
		tests/engines tests/server tests/sim tests/coord
	REPRO_ENGINE=ssi PYTHONHASHSEED=0 $(PYTEST) -m "not slow" -q \
		tests/engines tests/server tests/sim tests/coord
	PYTHONHASHSEED=0 $(PYTEST) -q \
		tests/core/test_timestamps.py tests/server/test_frontend_recovery.py \
		tests/coord/test_failover.py tests/server/test_ha.py
	PYTHONHASHSEED=31337 $(PYTEST) -q \
		tests/core/test_timestamps.py tests/server/test_frontend_recovery.py \
		tests/coord/test_failover.py tests/server/test_ha.py

## cProfile the batch-decide frontend microbench and print the top-20
## functions by cumulative time (where the critical section spends it),
## then the E24-shaped batch-128 attribution of the array lastCommit
## backend: cumulative time per phase (intern / gather / compare /
## install) plus the measured bytes/entry of both backends, then the
## cyclic collector's share of a session-driven batch-32 run whose
## caller keeps its futures: seconds per generation (gc.callbacks —
## cProfile cannot see them) and the tracked objects the run left behind.
## Last, the transactional client's side (the `txn-mixed` path): 200 k
## preloaded rows, the zipfian mixed workload interleaved 16 wide
## through TransactionManager; us per begin / read / write / commit,
## reads and writes per transaction, versions examined per read and the
## abort rate — the traffic a change to the read path is sized against.
profile:
	PYTHONPATH=src python -m repro.bench.frontend_bench --profile
	PYTHONPATH=src python -m repro.bench.frontend_bench --profile-e24
	PYTHONPATH=src python -m repro.bench.frontend_bench --profile-gc
	PYTHONPATH=src python -m repro.bench.harness --profile-txn
