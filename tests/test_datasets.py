"""Dataset generation, corruption and loader tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import (
    BENCHMARKS,
    CorruptionProfile,
    Corruptor,
    ProblemSplit,
    Record,
    build_er_problems,
    camera_schema,
    generate_camera_dataset,
    generate_computer_dataset,
    generate_music_dataset,
    load_benchmark,
    pairs_for_problem,
    record_index,
    split_problem_vectors,
    split_problems,
)
from repro.datasets.generator import ARCHETYPES, assign_archetypes
from repro.ml.utils import check_random_state


# -- corruption --------------------------------------------------------------


def test_corruptor_missing_rate_one_blanks_everything():
    corruptor = Corruptor(CorruptionProfile(missing_rate=1.0), 0)
    assert corruptor.corrupt_value("hello") is None


def test_corruptor_zero_profile_is_identity():
    corruptor = Corruptor(CorruptionProfile(), 0)
    for value in ("canon eos", "thinkpad x1", "a"):
        assert corruptor.corrupt_value(value) == value


def test_corruptor_typo_changes_string():
    corruptor = Corruptor(CorruptionProfile(typo_rate=1.0), 0)
    changed = sum(
        corruptor.corrupt_value("thinkpad") != "thinkpad" for _ in range(20)
    )
    assert changed >= 15


def test_corruptor_numeric_noise():
    corruptor = Corruptor(CorruptionProfile(numeric_noise=0.2), 0)
    values = [corruptor.corrupt_value(100.0) for _ in range(50)]
    assert any(v != 100.0 for v in values)
    assert all(isinstance(v, float) for v in values)


def test_corruptor_protected_attributes_untouched():
    profile = CorruptionProfile(typo_rate=1.0, protected=("model",))
    corruptor = Corruptor(profile, 0)
    attrs = corruptor.corrupt_attributes({"model": "X100", "title": "aaaa"})
    assert attrs["model"] == "X100"


def test_profile_scaled_caps_probabilities():
    profile = CorruptionProfile(typo_rate=0.9).scaled(2.0)
    assert profile.typo_rate == 1.0


def test_archetypes_cover_requested_count():
    rng = check_random_state(0)
    profiles = assign_archetypes(7, list(ARCHETYPES), rng)
    assert len(profiles) == 7


# -- generators -----------------------------------------------------------------


def test_camera_dataset_structure():
    dataset = generate_camera_dataset(n_entities=40, n_sources=5,
                                      random_state=0)
    assert len(dataset.sources) == 5
    assert dataset.allow_intra_source
    stats = dataset.statistics()
    assert stats["n_records"] > 40
    # Intra-source duplicates exist somewhere.
    has_duplicates = any(
        len(source.records) > len(source.entity_ids())
        for source in dataset.sources
    )
    assert has_duplicates


def test_computer_dataset_structure():
    dataset = generate_computer_dataset(n_entities=30, random_state=0)
    assert len(dataset.sources) == 4
    assert not dataset.allow_intra_source
    assert len(dataset.source_pairs()) == 6


def test_music_dataset_sources_duplicate_free():
    dataset = generate_music_dataset(n_entities=50, random_state=0)
    for source in dataset.sources:
        entity_ids = [r.entity_id for r in source.records]
        assert len(entity_ids) == len(set(entity_ids))


def test_source_pairs_include_intra_only_when_allowed():
    camera = generate_camera_dataset(n_entities=20, n_sources=3,
                                     random_state=0)
    assert ("cam00", "cam00") in camera.source_pairs()
    computer = generate_computer_dataset(n_entities=20, random_state=0)
    assert all(a != b for a, b in computer.source_pairs())


def test_generation_deterministic():
    a = generate_music_dataset(n_entities=30, random_state=7)
    b = generate_music_dataset(n_entities=30, random_state=7)
    for source_a, source_b in zip(a.sources, b.sources):
        for ra, rb in zip(source_a.records, source_b.records):
            assert ra.attributes == rb.attributes


def test_record_dict_interface():
    record = Record("r1", "s1", "e1", {"title": "tv"})
    assert record.get("title") == "tv"
    assert record["title"] == "tv"
    assert "title" in record
    assert record.get("missing") is None


# -- loaders ------------------------------------------------------------------------


def test_build_er_problems_labels_and_ranges():
    dataset = generate_computer_dataset(n_entities=40, random_state=1)
    schema = BENCHMARKS["wdc-computer"]["schema"]()
    problems = build_er_problems(dataset, schema,
                                 max_pairs_per_problem=100,
                                 match_fraction=0.3, random_state=0)
    assert problems
    for problem in problems:
        assert problem.features.min() >= 0 and problem.features.max() <= 1
        assert 0 < problem.n_matches < problem.n_pairs
        assert problem.feature_names == schema.feature_names
        assert len(problem.pair_ids) == problem.n_pairs


def test_build_er_problems_match_fraction_targeted():
    dataset = generate_computer_dataset(n_entities=60, random_state=2)
    schema = BENCHMARKS["wdc-computer"]["schema"]()
    problems = build_er_problems(dataset, schema,
                                 max_pairs_per_problem=200,
                                 match_fraction=0.2, random_state=0)
    ratios = [p.n_matches / p.n_pairs for p in problems]
    assert np.mean(ratios) == pytest.approx(0.2, abs=0.08)


def test_matches_really_share_entities():
    dataset = generate_computer_dataset(n_entities=30, random_state=3)
    schema = BENCHMARKS["wdc-computer"]["schema"]()
    problems = build_er_problems(dataset, schema, random_state=0)
    index = record_index(dataset)
    for problem in problems[:2]:
        for (id_a, id_b), label in zip(problem.pair_ids, problem.labels):
            same = index[id_a].entity_id == index[id_b].entity_id
            assert same == bool(label)


def test_split_problems_disjoint():
    dataset = generate_camera_dataset(n_entities=30, n_sources=6,
                                      random_state=0)
    problems = build_er_problems(dataset, camera_schema(), random_state=0)
    split = split_problems(problems, ratio_init=0.5, random_state=0)
    keys_initial = {p.key for p in split.initial}
    keys_unsolved = {p.key for p in split.unsolved}
    assert not keys_initial & keys_unsolved
    assert len(split.initial) + len(split.unsolved) == len(problems)


def test_split_problems_ratio_30():
    dataset = generate_camera_dataset(n_entities=30, n_sources=6,
                                      random_state=0)
    problems = build_er_problems(dataset, camera_schema(), random_state=0)
    split = split_problems(problems, ratio_init=0.3, random_state=0)
    assert len(split.initial) == pytest.approx(0.3 * len(problems), abs=1)


def test_split_problem_vectors_suffixes_sources():
    dataset = generate_computer_dataset(n_entities=40, random_state=4)
    schema = BENCHMARKS["wdc-computer"]["schema"]()
    problems = build_er_problems(dataset, schema, random_state=0)
    split = split_problem_vectors(problems, random_state=0)
    assert all(p.source_a.endswith("train") for p in split.initial)
    assert all(p.source_a.endswith("test") for p in split.unsolved)
    total = sum(p.n_pairs for p in split.initial + split.unsolved)
    assert total == sum(p.n_pairs for p in problems)


def test_problem_split_rejects_duplicates():
    dataset = generate_computer_dataset(n_entities=30, random_state=5)
    schema = BENCHMARKS["wdc-computer"]["schema"]()
    problems = build_er_problems(dataset, schema, random_state=0)
    with pytest.raises(ValueError, match="both splits"):
        ProblemSplit(initial=problems, unsolved=problems)


def test_load_benchmark_all_names():
    for name in BENCHMARKS:
        dataset, schema, split = load_benchmark(name, scale=0.12,
                                                random_state=0)
        assert split.initial and split.unsolved
        assert dataset.statistics()["n_sources"] >= 4


def test_load_benchmark_unknown_name():
    with pytest.raises(KeyError, match="unknown benchmark"):
        load_benchmark("imaginary")


def test_pairs_for_problem_roundtrip(wdc_split):
    dataset, _, split = wdc_split
    index = record_index(dataset)
    problem = split.initial[0]
    pairs = pairs_for_problem(problem, index)
    assert len(pairs) == problem.n_pairs
    assert all(hasattr(a, "attributes") for a, _ in pairs)


_CORPUS_SCRIPT = """
import hashlib
from repro.datasets import load_benchmark

for name in ("dexter", "wdc-computer", "music"):
    _, _, split = load_benchmark(name, scale=0.05)
    digest = hashlib.sha256()
    for problem in split.initial + split.unsolved:
        digest.update(repr(problem.key).encode())
        digest.update(problem.features.tobytes())
        digest.update(repr(problem.pair_ids).encode())
    print(name, digest.hexdigest())
"""


def _corpora_under_hash_seed(seed):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", _CORPUS_SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    ).stdout


def test_corpora_ignore_the_hash_seed():
    """The sampled hard negatives, hence every problem's pairs and
    features, must not depend on the process's string hash seed."""
    first = _corpora_under_hash_seed(0)
    assert len(first.splitlines()) == 3
    assert _corpora_under_hash_seed(1) == first
