"""Baseline ER methods the paper compares against (§5.2).

Active learning: :class:`AlmserActiveLearner`,
:class:`BootstrapActiveLearner`. Transfer learning: :class:`TransER`.
Language-model simulators (built on :mod:`repro.nn`; see DESIGN.md §2):
:class:`DittoClassifier`, :class:`UnicornClassifier`,
:class:`SudowoodoClassifier`, :class:`AnyMatchClassifier`.
Unsupervised extension: :class:`ZeroER`.
"""

import importlib

from .almser import AlmserActiveLearner
from .bootstrap import BootstrapActiveLearner, record_uniqueness_scores

# The heavier baselines load on first attribute access (PEP 562), so
# importing repro.core — which needs only the two AL learners — does
# not pull the neural substrate in.
_LAZY = {
    "TransER": ".transfer",
    "ZeroER": ".zeroer",
    "MultiEM": ".multiem",
    "DittoClassifier": ".ditto",
    "UnicornClassifier": ".unicorn",
    "SudowoodoClassifier": ".sudowoodo",
    "AnyMatchClassifier": ".anymatch",
}

__all__ = [
    "AlmserActiveLearner",
    "BootstrapActiveLearner",
    "record_uniqueness_scores",
    *_LAZY,
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
