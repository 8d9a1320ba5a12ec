"""Pure-numpy machine-learning substrate (scikit-learn substitute).

The paper implements MoRER on scikit-learn 1.5.1; that library is not
available offline, so this package provides the estimators the paper's
pipeline needs with the same ``fit`` / ``predict`` / ``predict_proba``
API, plus JSON-safe ``to_dict`` / ``from_dict`` serialisation used by the
model repository backend.

The trees and forests a served repository runs load with the package;
every other estimator and helper loads on first access (PEP 562).
"""

from .._lazy import LazyRegistry, lazy_exports
from .base import BaseEstimator, ClassifierMixin, clone
from .forest import BaggingClassifier, RandomForestClassifier
from .tree import DecisionTreeClassifier
from .utils import check_array, check_random_state, check_X_y

__getattr__ = lazy_exports(globals(), {
    ".gmm": ["GaussianMixture"],
    ".linear": ["LogisticRegression"],
    ".metrics": [
        "accuracy_score",
        "precision_score",
        "recall_score",
        "f1_score",
        "precision_recall_f1",
        "confusion_counts",
    ],
    ".model_selection": [
        "StratifiedKFold",
        "train_test_split",
        "cross_val_predict",
        "cross_val_score",
    ],
    ".naive_bayes": ["GaussianNB"],
    ".neighbors": ["KNeighborsClassifier", "NearestNeighbors"],
    ".preprocessing": ["StandardScaler", "MinMaxScaler", "LabelEncoder"],
})

#: Name -> class registry used by ``BaseEstimator.from_dict`` to rebuild
#: nested estimators from their serialised state; a name's module loads
#: when it is looked up.
ESTIMATOR_REGISTRY = LazyRegistry(__name__, (
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "BaggingClassifier",
    "LogisticRegression",
    "GaussianNB",
    "KNeighborsClassifier",
    "GaussianMixture",
    "StandardScaler",
    "MinMaxScaler",
    "LabelEncoder",
))

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "clone",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "BaggingClassifier",
    "LogisticRegression",
    "GaussianNB",
    "KNeighborsClassifier",
    "NearestNeighbors",
    "GaussianMixture",
    "StandardScaler",
    "MinMaxScaler",
    "LabelEncoder",
    "StratifiedKFold",
    "train_test_split",
    "cross_val_predict",
    "cross_val_score",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "precision_recall_f1",
    "confusion_counts",
    "check_array",
    "check_random_state",
    "check_X_y",
    "ESTIMATOR_REGISTRY",
]
