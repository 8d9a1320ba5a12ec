"""Service-layer tests: typed boundary, micro-batching scheduler
parity, concurrent access (threaded ``base`` during ``cov``, save
under load), bounded-queue overload, and strict config overrides."""

import threading
import time

import numpy as np
import pytest

from repro.core import ERProblem, MoRER, MoRERConfig
from repro.service import (
    FitRequest,
    InvalidRequest,
    MoRERService,
    NotFitted,
    Overloaded,
    RepositoryStats,
    SolveRequest,
    SolveResponse,
    problem_from_dict,
)
from repro.service.fixtures import demo_morer, demo_probes, demo_problems
from tests.conftest import make_problem


# -- typed boundary ----------------------------------------------------------------


def test_problem_dict_round_trip():
    problem = make_problem(n=20)
    twin = problem_from_dict(problem.to_dict())
    assert twin.key == problem.key
    assert np.array_equal(twin.features, problem.features)
    assert np.array_equal(twin.labels, problem.labels)
    assert twin.pair_ids == problem.pair_ids
    assert twin.feature_names == problem.feature_names


def test_problem_from_dict_validates_loudly():
    good = make_problem(n=5).to_dict()
    with pytest.raises(InvalidRequest, match="missing required field"):
        problem_from_dict({k: v for k, v in good.items()
                           if k != "features"})
    bad = dict(good)
    bad["features"] = [[2.5] * 4] * 5  # outside [0, 1]
    with pytest.raises(InvalidRequest, match="invalid problem"):
        problem_from_dict(bad)
    with pytest.raises(InvalidRequest, match="must be a JSON object"):
        problem_from_dict("not a dict")


def test_solve_request_round_trip_and_validation():
    request = SolveRequest(problem=make_problem(n=6), strategy="cov")
    twin = SolveRequest.from_dict(request.to_dict())
    assert twin.strategy == "cov"
    assert twin.problem.key == request.problem.key
    with pytest.raises(InvalidRequest, match="strategy"):
        SolveRequest(problem=make_problem(n=6), strategy="magic")
    with pytest.raises(InvalidRequest, match="missing required field"):
        SolveRequest.from_dict({"strategy": "base"})


def test_solve_response_round_trip_encodes_nan_as_null():
    response = SolveResponse(
        predictions=np.array([1, 0, 1]), cluster_id=3,
        similarity=float("nan"), retrained=True, labels_spent=7,
        coverage=0.4, overhead_seconds=0.01,
    )
    data = response.to_dict()
    assert data["similarity"] is None  # strict JSON, no NaN literal
    twin = SolveResponse.from_dict(data)
    assert np.array_equal(twin.predictions, response.predictions)
    assert np.isnan(twin.similarity)
    assert twin.retrained and twin.labels_spent == 7
    assert twin.cluster_id == 3 and twin.coverage == 0.4


def test_fit_request_requires_labels():
    unlabelled = make_problem(n=5).without_labels()
    with pytest.raises(InvalidRequest, match="no labels"):
        FitRequest(problems=[unlabelled])
    with pytest.raises(InvalidRequest, match="at least one"):
        FitRequest(problems=[])


def test_repository_stats_round_trip():
    stats = RepositoryStats(
        fitted=True, n_entries=2, n_problems=9, total_labels_spent=40,
        counters={"batch_solves": 1}, timings={"search": 0.5},
        service={"cov_solves": 4},
    )
    twin = RepositoryStats.from_dict(stats.to_dict())
    assert twin == stats
    # The problem count is sent once: an older server's graph_version
    # (always equal to n_problems) is not sent, and read past if given.
    assert "graph_version" not in stats.to_dict()
    assert RepositoryStats.from_dict(
        dict(stats.to_dict(), graph_version=9)
    ) == stats


# -- strict config overrides (satellite) --------------------------------------------


def test_config_rejects_unknown_keys_naming_valid_fields():
    with pytest.raises(ValueError) as excinfo:
        MoRERConfig(t_covv=0.5)
    message = str(excinfo.value)
    assert "'t_covv'" in message
    assert "valid fields" in message and "t_cov" in message


def test_morer_rejects_unknown_override_keys():
    with pytest.raises(ValueError, match="unknown MoRERConfig field"):
        MoRER(selectoin="cov")
    config = MoRERConfig()
    with pytest.raises(ValueError, match="'bttl'"):
        MoRER(config, bttl=100)
    # Known overrides still work on both paths.
    assert MoRER(b_total=123).config.b_total == 123
    assert MoRER(config, b_total=321).config.b_total == 321


def test_service_knob_validation():
    """The scheduler's settings are :class:`MoRERService` arguments,
    validated there; the config (and so a saved store) holds none."""
    morer = demo_morer(8)
    for knob, value in (("max_batch_size", 0), ("max_wait_ms", -1),
                        ("max_queue_depth", 0)):
        with pytest.raises(InvalidRequest, match=knob):
            MoRERService(morer, **{knob: value})
    service = MoRERService(morer)
    service.close()
    assert (service.max_batch_size, service.max_wait_ms,
            service.max_queue_depth) == (16, 2.0, 256)
    with pytest.raises(ValueError, match="unknown MoRERConfig field"):
        MoRERConfig(service_max_batch_size=4)


# -- service façade ----------------------------------------------------------------


@pytest.fixture
def served():
    service = MoRERService(
        demo_morer(10), max_batch_size=4, max_wait_ms=20
    )
    yield service
    service.close()


def test_base_solve_matches_direct_morer(served):
    twin = demo_morer(10)
    probe = demo_probes(1)[0].without_labels()
    response = served.solve(SolveRequest(problem=probe, strategy="base"))
    direct = twin.solve(probe, strategy="base")
    assert response.cluster_id == direct.cluster_id
    assert np.array_equal(response.predictions, direct.predictions)
    assert response.similarity == pytest.approx(direct.similarity)
    assert served.stats().service["base_solves"] == 1


def test_service_accepts_problem_and_dict_requests(served):
    probe = demo_probes(1)[0]
    by_problem = served.solve(probe)
    by_dict = served.solve(
        SolveRequest(problem=probe, strategy="cov").to_dict()
    )
    assert by_problem.cluster_id == by_dict.cluster_id
    with pytest.raises(InvalidRequest, match="solve expects"):
        served.solve(42)


def test_not_fitted_then_fit_then_refit_rejected():
    service = MoRERService(MoRER(
        selection="cov", model_generation="supervised",
        classifier="logistic_regression", random_state=0,
    ))
    try:
        assert service.stats().fitted is False
        assert service.healthz()["fitted"] is False
        with pytest.raises(NotFitted, match="no fitted repository"):
            service.solve(demo_probes(1)[0])
        stats = service.fit(FitRequest(problems=demo_problems(8)))
        assert stats.fitted and stats.n_entries >= 1
        assert service.solve(demo_probes(1)[0]).predictions.size
        with pytest.raises(InvalidRequest, match="already fitted"):
            service.fit(demo_problems(8))
    finally:
        service.close()


def test_feature_schema_mismatch_rejected_at_admission(served):
    probe = make_problem("Q", "Qb", n=10, n_features=7)
    with pytest.raises(InvalidRequest, match="shared comparison schema"):
        served.solve(SolveRequest(problem=probe, strategy="cov"))
    # The bad probe never reached the graph (no poisoned batch).
    assert served.stats().service["cov_solves"] == 0


# -- micro-batching scheduler -------------------------------------------------------


def test_scheduler_coalesces_and_matches_solve_batch_byte_identically():
    """The acceptance bar: concurrently submitted cov requests coalesce
    into one tick whose decisions are byte-identical to a direct
    ``solve_batch`` of the same probes on a twin instance."""
    probes = demo_probes(6)
    twin = demo_morer(12)
    direct = twin.solve_batch(probes, strategy="cov")

    service = MoRERService(
        demo_morer(12), max_batch_size=len(probes), max_wait_ms=2000
    )
    try:
        futures = [
            service.submit(SolveRequest(problem=probe, strategy="cov"))
            for probe in probes
        ]
        responses = [future.result(timeout=30) for future in futures]
        # Everything coalesced into exactly one solve_batch tick.
        assert service.stats().service["batches_dispatched"] == 1
        assert [r.batch_id for r in responses] == [1] * len(probes)
        assert service.morer.counters["batch_solves"] == 1
    finally:
        service.close()

    for response, reference in zip(responses, direct):
        assert np.array_equal(response.predictions, reference.predictions)
        assert response.cluster_id == reference.cluster_id
        assert response.retrained == reference.retrained
        assert response.new_model == reference.new_model
        assert response.labels_spent == reference.labels_spent
        assert response.coverage == pytest.approx(reference.coverage)


def test_bounded_queue_raises_overloaded():
    service = MoRERService(
        demo_morer(8), max_batch_size=1, max_wait_ms=0, max_queue_depth=1
    )
    try:
        probes = demo_probes(3, seed=77)
        service._lock.acquire_write()  # park the scheduler in dispatch
        try:
            first = service.submit(
                SolveRequest(problem=probes[0], strategy="cov")
            )
            # Wait for the scheduler to take the first request in-flight
            # (it then blocks on the write lock we hold).
            deadline = time.monotonic() + 5
            while True:
                with service._queue_cond:
                    if not service._queue:
                        break
                assert time.monotonic() < deadline
                time.sleep(0.005)
            second = service.submit(
                SolveRequest(problem=probes[1], strategy="cov")
            )
            with pytest.raises(Overloaded, match="queue is full"):
                service.submit(
                    SolveRequest(problem=probes[2], strategy="cov")
                )
        finally:
            service._lock.release_write()
        assert first.result(timeout=30).predictions.size
        assert second.result(timeout=30).predictions.size
        assert service.stats().service["overload_rejections"] == 1
    finally:
        service.close()


def test_cancelled_future_does_not_kill_the_scheduler():
    service = MoRERService(
        demo_morer(8), max_batch_size=8, max_wait_ms=500
    )
    try:
        probes = demo_probes(3, seed=91)
        futures = [
            service.submit(SolveRequest(problem=probe, strategy="cov"))
            for probe in probes
        ]
        # Cancel the middle request while the tick is still open.
        assert futures[1].cancel()
        assert futures[0].result(timeout=30).predictions.size
        assert futures[2].result(timeout=30).predictions.size
        assert futures[1].cancelled()
        # The scheduler survived and keeps serving.
        follow_up = service.solve(SolveRequest(
            problem=make_problem("FU", "FUb", seed=92), strategy="cov"
        ))
        assert follow_up.predictions.size
        # The cancelled one never ran.
        assert service.stats().service["cov_solves"] == 3
    finally:
        service.close()


def test_solve_batch_admission_is_all_or_nothing():
    service = MoRERService(
        demo_morer(8), max_batch_size=4, max_wait_ms=10, max_queue_depth=2
    )
    try:
        graph_size = len(service.morer.problem_graph)
        good = demo_probes(2, seed=95)
        bad = make_problem("BAD", "BADb", n=10, n_features=9)
        # A mid-list invalid member rejects the whole batch before any
        # admission: nothing was queued, nothing integrated.
        with pytest.raises(InvalidRequest, match="shared comparison"):
            service.solve_batch([
                SolveRequest(problem=good[0], strategy="cov"),
                SolveRequest(problem=bad, strategy="cov"),
                SolveRequest(problem=good[1], strategy="cov"),
            ])
        assert service.stats().service["cov_solves"] == 0
        assert len(service.morer.problem_graph) == graph_size
        # A batch larger than the queue bound is rejected as a unit.
        with pytest.raises(Overloaded, match="queue is full"):
            service.solve_batch([
                SolveRequest(problem=probe, strategy="cov")
                for probe in demo_probes(3, seed=96)
            ])
        with service._queue_cond:
            assert not service._queue
        assert service.stats().service["overload_rejections"] == 1
        # A batch within the bound still solves normally.
        responses = service.solve_batch([
            SolveRequest(problem=probe, strategy="cov") for probe in good
        ])
        assert all(r.predictions.size for r in responses)
    finally:
        service.close()


def test_bad_probe_in_tick_does_not_fail_tick_mates():
    """A probe whose decision raises mid-``solve_batch`` (e.g. an
    unlabeled probe landing in an all-unseen cluster) must not fail
    its tick-mates: the scheduler falls back to per-request solves so
    only the offending request errors."""
    service = MoRERService(demo_morer(10), max_batch_size=8,
                           max_wait_ms=500)
    try:
        rng = np.random.default_rng(7)
        poison_key = ("P", "Pb")
        poison = SolveRequest(
            problem=ERProblem(*poison_key, rng.uniform(0, 1, (30, 4))),
            strategy="cov",
        )
        # Deterministic mid-batch failure: the demo regimes are too
        # well connected for a probe to form an all-unseen cluster
        # naturally, so inject the core-level error at the seam the
        # scheduler calls.
        real_solve_batch = service.morer.solve_batch

        def flaky_solve_batch(problems, oracle=None, strategy=None):
            if any(p.key == poison_key for p in problems):
                raise ValueError("cluster has no labels and no oracle")
            return real_solve_batch(problems, oracle=oracle,
                                    strategy=strategy)

        service.morer.solve_batch = flaky_solve_batch
        good = [
            SolveRequest(problem=probe, strategy="cov")
            for probe in demo_probes(3, seed=14)
        ]
        futures = [service.submit(request)
                   for request in good[:1] + [poison] + good[1:]]
        with pytest.raises(InvalidRequest, match="no labels"):
            futures[1].result(timeout=30)
        for future in futures[:1] + futures[2:]:
            assert future.result(timeout=30).predictions.size
        # The scheduler survived the failed tick and keeps serving.
        follow_up = service.solve(SolveRequest(
            problem=make_problem("FT", "FTb", seed=15), strategy="cov"
        ))
        assert follow_up.predictions.size
    finally:
        service.close()


def test_close_drains_queued_requests_then_rejects():
    service = MoRERService(demo_morer(8), max_batch_size=2, max_wait_ms=50)
    futures = [
        service.submit(SolveRequest(problem=probe, strategy="cov"))
        for probe in demo_probes(4, seed=31)
    ]
    service.close()
    for future in futures:
        assert future.result(timeout=5).predictions.size
    from repro.service import ServiceError
    with pytest.raises(ServiceError, match="closed"):
        service.solve(SolveRequest(problem=demo_probes(1)[0],
                                   strategy="cov"))
    assert service.healthz()["status"] == "closed"


# -- concurrent access (satellite) --------------------------------------------------


def _hammer(fn, n, errors):
    def run():
        try:
            for _ in range(n):
                fn()
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)
    return threading.Thread(target=run)


def test_threaded_base_solves_during_cov_solves():
    service = MoRERService(demo_morer(12), max_batch_size=4, max_wait_ms=10)
    try:
        base_probes = [p.without_labels() for p in demo_probes(4, seed=5)]
        errors, outcomes = [], []

        def one_base():
            probe = base_probes[len(outcomes) % len(base_probes)]
            response = service.solve(
                SolveRequest(problem=probe, strategy="base")
            )
            outcomes.append(response.cluster_id)

        threads = [_hammer(one_base, 15, errors) for _ in range(4)]
        for thread in threads:
            thread.start()
        cov_responses = service.solve_batch([
            SolveRequest(problem=probe, strategy="cov")
            for probe in demo_probes(8, seed=45)
        ])
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(outcomes) == 60
        valid_ids = set(service.morer.repository.entries)
        assert set(outcomes) <= valid_ids
        assert len(cov_responses) == 8
        assert all(r.predictions.size for r in cov_responses)
        stats = service.stats()
        assert stats.service["base_solves"] == 60
        assert stats.service["cov_solves"] == 8
    finally:
        service.close()


def test_save_under_concurrent_load_round_trips(tmp_path):
    service = MoRERService(demo_morer(10), max_batch_size=4, max_wait_ms=10)
    store = tmp_path / "served_store"
    try:
        errors = []
        base_probe = demo_probes(1, seed=8)[0].without_labels()

        def one_base():
            service.solve(SolveRequest(problem=base_probe,
                                       strategy="base"))

        def one_cov():
            probe = demo_probes(
                1, seed=int(1000 * time.monotonic()) % 100000
            )[0]
            service.solve(SolveRequest(problem=probe, strategy="cov"))

        threads = [_hammer(one_base, 10, errors) for _ in range(3)]
        threads.append(_hammer(one_cov, 3, errors))
        for thread in threads:
            thread.start()
        service.save(store)
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
    finally:
        service.close()
    restored = MoRER.load(store)
    result = restored.solve(demo_probes(1, seed=9)[0])
    assert result.predictions.size
