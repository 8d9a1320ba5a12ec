"""Tests for cluster-stability maintenance, MultiEM and the CLI."""

import numpy as np
import pytest

from repro.baselines import MultiEM
from repro.cli import build_parser, main as cli_main
from repro.core import (
    MoRER,
    adjusted_rand_index,
    cluster_conductance,
    perturbation_stability,
    repository_health,
    silhouette_scores,
)
from repro.datasets import generate_music_dataset
from repro.ml import precision_recall_f1
from tests.conftest import make_problem_family


# -- stability measures -------------------------------------------------------------


def _fitted_morer():
    family = make_problem_family()
    morer = MoRER(b_total=100, b_min=20, random_state=0)
    morer.fit(family)
    return morer, family


def test_silhouette_separated_regimes_positive():
    morer, family = _fitted_morer()
    scores = silhouette_scores(morer.problem_graph, morer.clusters_)
    assert set(scores) == {p.key for p in family}
    assert np.mean(list(scores.values())) > 0.0
    assert all(-1.0 <= s <= 1.0 for s in scores.values())


def test_conductance_bounds_and_ordering():
    morer, _ = _fitted_morer()
    for cluster in morer.clusters_:
        value = cluster_conductance(morer.problem_graph, cluster)
        assert 0.0 <= value <= 1.0
    # The whole vertex set has conductance 0 (no boundary).
    everything = set()
    for cluster in morer.clusters_:
        everything |= cluster
    assert cluster_conductance(morer.problem_graph, everything) == 0.0


def test_adjusted_rand_index_identical_and_disjoint():
    a = [{"x", "y"}, {"z"}]
    assert adjusted_rand_index(a, a) == pytest.approx(1.0)
    flipped = [{"x"}, {"y", "z"}]
    assert adjusted_rand_index(a, flipped) < 1.0


def test_adjusted_rand_index_requires_same_keys():
    with pytest.raises(ValueError, match="different key sets"):
        adjusted_rand_index([{"a"}], [{"b"}])


def test_perturbation_stability_on_clear_structure():
    morer, _ = _fitted_morer()
    stability = perturbation_stability(
        morer.problem_graph, n_runs=3, random_state=0
    )
    # Two well-separated regimes recluster identically under any seed.
    assert stability == pytest.approx(1.0)


def test_repository_health_report():
    morer, _ = _fitted_morer()
    report = repository_health(morer, n_runs=2)
    assert len(report) == len(morer.repository)
    for row in report:
        assert {"cluster_id", "n_problems", "mean_silhouette",
                "conductance", "labels_spent",
                "perturbation_stability"} <= set(row)


def test_repository_health_unfitted():
    with pytest.raises(RuntimeError, match="not fitted"):
        repository_health(MoRER())


# -- MultiEM -----------------------------------------------------------------------


def test_multiem_matches_multisource_corpus():
    dataset = generate_music_dataset(n_entities=60, random_state=0)
    matcher = MultiEM(threshold=0.4)
    entities = matcher.match([list(s.records) for s in dataset.sources])
    # Evaluate on true cross-source pairs.
    truths, predictions = [], []
    sources = dataset.sources
    for i in range(len(sources)):
        for j in range(i + 1, len(sources)):
            for a in sources[i].records[:30]:
                for b in sources[j].records[:30]:
                    truths.append(int(a.entity_id == b.entity_id))
                    predictions.append(
                        int(entities.connected(a.record_id, b.record_id))
                    )
    p, r, f1 = precision_recall_f1(np.array(truths), np.array(predictions))
    assert f1 > 0.5  # unsupervised, hierarchical — decent but not MoRER


def test_multiem_threshold_validation():
    with pytest.raises(ValueError, match="threshold"):
        MultiEM(threshold=0.0)
    with pytest.raises(ValueError, match="source"):
        MultiEM().match([])


def test_multiem_predict_pairs():
    matcher = MultiEM(threshold=0.3)
    sources = [
        [{"id": "a0", "title": "alpha beta gamma"}],
        [{"id": "b0", "title": "alpha beta gamma"},
         {"id": "b1", "title": "totally different thing"}],
    ]
    entities = matcher.match(sources)
    predictions = matcher.predict_pairs(
        entities, [("a0", "b0"), ("a0", "b1")]
    )
    assert predictions.tolist() == [1, 0]


def test_multiem_odd_source_count():
    sources = [
        [{"id": f"s{k}r0", "title": f"item {k} common"}] for k in range(3)
    ]
    entities = MultiEM(threshold=0.95).match(sources)
    assert entities.groups()  # runs with an odd partition count


# -- CLI -----------------------------------------------------------------------------


def test_cli_parser_choices():
    parser = build_parser()
    args = parser.parse_args(["table2", "--scale", "0.1"])
    assert args.experiment == "table2"
    assert args.scale == 0.1
    with pytest.raises(SystemExit):
        parser.parse_args(["table9"])


def test_cli_runs_table2(capsys):
    cli_main(["table2", "--scale", "0.1"])
    output = capsys.readouterr().out
    assert "Table 2" in output
    assert "dexter" in output


def test_cli_runs_fig2(capsys):
    cli_main(["fig2", "--scale", "0.15"])
    output = capsys.readouterr().out
    assert "Fig. 2" in output


def test_cli_parser_serve_options():
    parser = build_parser()
    args = parser.parse_args(["serve", "--demo", "--port", "0"])
    assert args.experiment == "serve"
    assert args.demo == 24  # bare --demo takes the default size
    args = parser.parse_args([
        "serve", "--store", "runs/store", "--max-batch-size", "8",
        "--max-wait-ms", "5", "--max-queue-depth", "32",
    ])
    assert args.store == "runs/store"
    assert args.max_batch_size == 8
    assert args.max_wait_ms == 5.0
    assert args.max_queue_depth == 32


def test_cli_serve_flags_reach_the_service_and_gateway(monkeypatch):
    """An unset serving flag keeps its constructor's default; a set one
    reaches the MoRERService or the ServiceHTTPServer it feeds."""
    from repro.cli import _serve

    built = []

    class _FakeServer:
        def __init__(self, service, address, log_requests=False, **kwargs):
            built.append((service, kwargs))
            self.url = "fake"

        def serve_forever(self):
            raise KeyboardInterrupt

        def shutdown(self):
            pass

        def server_close(self):
            pass

    monkeypatch.setattr("repro.service.ServiceHTTPServer", _FakeServer)
    _serve(build_parser().parse_args(["serve", "--demo", "4"]))
    _serve(build_parser().parse_args([
        "serve", "--demo", "4", "--max-batch-size", "4",
        "--rate-limit", "50",
    ]))
    (default, default_kwargs), (flagged, flagged_kwargs) = built
    assert (default.max_batch_size, default.max_wait_ms,
            default.max_queue_depth) == (16, 2.0, 256)
    assert default_kwargs == {}
    assert flagged.max_batch_size == 4
    assert flagged_kwargs == {"rate_limit_rps": 50.0}


def test_cli_serve_refuses_an_out_of_range_flag(tmp_path):
    """An out-of-range serving flag exits by name before a durable
    ``--demo`` bootstrap writes its store."""
    store, wal_dir = tmp_path / "store", tmp_path / "wal"
    for flags, named in ((["--max-batch-size", "0"], "max_batch_size"),
                         (["--rate-limit", "-1"], "rate_limit_rps"),
                         (["--rate-burst", "-1"], "rate_burst")):
        with pytest.raises(SystemExit, match=f"cannot serve: {named}"):
            cli_main(["serve", "--demo", "4", "--port", "0",
                      "--store", str(store), "--wal-dir", str(wal_dir),
                      *flags])
        assert not store.exists()


def test_cli_serve_requires_a_source():
    with pytest.raises(SystemExit, match="--store DIR or --demo"):
        cli_main(["serve"])
    with pytest.raises(SystemExit, match="mutually exclusive"):
        cli_main(["serve", "--store", "x", "--demo", "4"])
