"""The benchmark baseline hook: ``sequential_decide`` settles what the
batch engines settle, one ``commit()`` / ``abort()`` call per item."""

import pytest

from repro.bench.frontend_bench import bench_batched, make_specs, sequential_decide
from repro.core.status_oracle import CommitRequest, make_oracle
from repro.server.frontend import OracleFrontend


def _futures_outcomes(per_request, specs):
    oracle = make_oracle("wsi")
    if per_request:
        sequential_decide(oracle)
    frontend = OracleFrontend(oracle, max_batch=16)
    futures = []
    for i, spec in enumerate(specs):
        start = frontend.begin()
        if i % 7 == 3:
            futures.append(frontend.submit_abort(start))
        else:
            futures.append(frontend.submit_commit(spec.commit_request(start)))
    frontend.flush()
    return [
        (f.outcome(), f.result().commit_ts, f.result().reason,
         f.result().conflict_row)
        for f in futures
    ]


def test_sequential_decide_settles_futures_like_the_engine():
    specs = make_specs(300, keyspace=150, seed=3)
    per_request = _futures_outcomes(True, specs)
    assert {o[0] for o in per_request} >= {"committed", "aborted"}
    assert per_request == _futures_outcomes(False, specs)


def test_sequential_decide_isolates_a_raising_commit_to_its_item():
    oracle = make_oracle("wsi")
    real_commit = oracle.commit
    bad = []

    def commit(request):
        if request.start_ts in bad:
            raise RuntimeError("boom")
        return real_commit(request)

    oracle.commit = commit
    sequential_decide(oracle)
    frontend = OracleFrontend(oracle, max_batch=8)
    requests = [
        CommitRequest(frontend.begin(), write_set=frozenset({row}))
        for row in range(3)
    ]
    bad.append(requests[1].start_ts)
    futures = [frontend.submit_commit(r) for r in requests]
    frontend.flush()
    assert [f.outcome() for f in futures] == ["committed", "error", "committed"]
    with pytest.raises(RuntimeError, match="boom"):
        futures[1].result()


def test_per_request_with_futures_decides_like_the_engine():
    specs = make_specs(200, keyspace=100, seed=5)
    per_request = bench_batched(
        "wsi", specs, batch_size=16, repeats=1,
        use_futures=True, per_request=True,
    )
    batched = bench_batched(
        "wsi", specs, batch_size=16, repeats=1, use_futures=True,
    )
    assert (per_request.commits, per_request.aborts) == (
        batched.commits, batched.aborts,
    )
    assert per_request.commits and per_request.aborts
