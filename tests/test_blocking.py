"""Blocking / candidate generation tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.blocking import token_blocking_pairs

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _records(source, titles):
    return [
        {"id": f"{source}{i}", "title": title}
        for i, title in enumerate(titles)
    ]


def test_token_blocking_shares_token():
    a = _records("a", ["canon eos 70d", "sony a7"])
    b = _records("b", ["canon powershot", "nikon z6"])
    pairs = list(token_blocking_pairs(a, b, "title"))
    assert len(pairs) == 1
    assert pairs[0][1]["title"] == "canon powershot"


def test_token_blocking_stopword_guard():
    a = _records("a", ["common token"] * 60)
    b = _records("b", ["common token"] * 60)
    pairs = list(token_blocking_pairs(a, b, "title",
                                      max_token_frequency=50))
    assert pairs == []


_ORDER_SCRIPT = """
import json
import numpy as np
from repro.blocking import token_blocking_pairs

rng = np.random.default_rng(0)
words = [f"w{i}" for i in range(30)]

def records(source):
    return [
        {"id": f"{source}{i}", "title": " ".join(rng.choice(words, 4))}
        for i in range(40)
    ]

a, b = records("a"), records("b")
print(json.dumps([[x["id"], y["id"]] for x, y in token_blocking_pairs(
    a, b, "title")]))
"""


def _pairs_under_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    output = subprocess.run(
        [sys.executable, "-c", _ORDER_SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(output)


def test_token_blocking_order_ignores_hash_seed():
    """The pair order becomes the row order of the ER problem built from
    it, so it must not depend on the process's string hash seed."""
    first = _pairs_under_hash_seed(0)
    assert len(first) > 100
    assert _pairs_under_hash_seed(1) == first
