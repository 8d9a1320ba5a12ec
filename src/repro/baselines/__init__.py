"""Baseline ER methods the paper compares against (§5.2).

Active learning: :class:`AlmserActiveLearner`,
:class:`BootstrapActiveLearner`. Transfer learning: :class:`TransER`.
Language-model simulators (built on :mod:`repro.nn`; see DESIGN.md §2):
:class:`DittoClassifier`, :class:`UnicornClassifier`,
:class:`SudowoodoClassifier`, :class:`AnyMatchClassifier`.
Unsupervised extension: :class:`ZeroER`.
"""

from .._lazy import lazy_exports
from .bootstrap import BootstrapActiveLearner, record_uniqueness_scores

# Every baseline but Bootstrap AL (MoRER's default learner) loads on
# first attribute access (PEP 562), so importing repro.core does not
# pull in Almser or the neural substrate.
__getattr__ = lazy_exports(globals(), {
    ".almser": ["AlmserActiveLearner"],
    ".transfer": ["TransER"],
    ".zeroer": ["ZeroER"],
    ".multiem": ["MultiEM"],
    ".ditto": ["DittoClassifier"],
    ".unicorn": ["UnicornClassifier"],
    ".sudowoodo": ["SudowoodoClassifier"],
    ".anymatch": ["AnyMatchClassifier"],
})

__all__ = [
    "AlmserActiveLearner",
    "BootstrapActiveLearner",
    "record_uniqueness_scores",
    "TransER",
    "ZeroER",
    "MultiEM",
    "DittoClassifier",
    "UnicornClassifier",
    "SudowoodoClassifier",
    "AnyMatchClassifier",
]
