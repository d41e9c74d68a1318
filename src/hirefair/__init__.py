"""Fairness audit toolkit for LLM-assisted hiring pipelines.

hirefair perturbs resume corpora in controlled ways (name swaps, typos,
formatting), drives pluggable embedding / completion backends, and computes
fairness metrics for the retrieval stage (exclusion, non-uniformity) and the
summarization stage (invariance-violation rates over proxy text measures).
"""

__version__ = "0.1.0"

from hirefair.corpus import (
    DemographicGroup,
    JobPost,
    NamePool,
    Resume,
    load_corpus,
    load_name_pools,
    pair_jobs,
    save_corpus,
)
from hirefair.perturb import PerturbationSpec
from hirefair.stats import (
    bh_correct,
    bonferroni_correct,
    chi_squared_gof,
    paired_t_test,
)

__all__ = [
    "DemographicGroup",
    "JobPost",
    "NamePool",
    "PerturbationSpec",
    "Resume",
    "bh_correct",
    "bonferroni_correct",
    "chi_squared_gof",
    "competition_ranks",
    "exclusion",
    "load_corpus",
    "load_name_pools",
    "non_uniformity",
    "pair_jobs",
    "paired_t_test",
    "save_corpus",
]

#: Names loaded from hirefair.retrieval, and so numpy, on first use.
_RETRIEVAL = ("competition_ranks", "exclusion", "non_uniformity")


def __getattr__(name: str):
    if name in _RETRIEVAL:
        from hirefair import retrieval

        return getattr(retrieval, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
