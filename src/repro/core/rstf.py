"""The Relevance Score Transformation Function (paper §4.2, §5.1).

An RSTF must (paper §4.2):

1. map the relevance scores of different terms to one common range ``R``;
2. distribute the transformed values (TRS) uniformly over ``R``;
3. preserve the order of the relevance score values.

Zerber+R builds it as the integral of a Gaussian-sum model of the term's
score density (Eq. 5–6), approximated in closed form by a sum of logistic
curves (Eq. 7–8)::

    RSTF(x) = (1/N) * sum_i  1 / (1 + exp(-sigma * (x - mu_i)))

with one ``mu_i`` per training score and σ the steepness (paper
convention: larger σ = narrower bell = more memorisation).

Terms absent from the training set "are assumed to be rare and can
therefore be assigned a random TRS" (§5.1.1); :class:`RstfModel` delegates
those to a caller-supplied keyed PRF so that independent inserting clients
assign the *same* pseudo-random TRS to the same term.

A document is transformed in one pass: :meth:`RstfModel.transform_many`
concatenates the cached ``mus`` arrays of the document's trained terms,
evaluates the logistic curve once over all of them and reduces each
term's segment with ``np.add.reduce(segment) / n`` — the pairwise
summation ``mean`` itself runs, so every TRS is bit-identical to the
scalar :meth:`Rstf.transform`.  ``np.add.reduceat`` would reduce all
segments in one call but sums strictly left to right, which moves the
last bit of about a third of the values; anything that compares a stored
TRS against the scalar transform (the benchmarks' plaintext model does)
would then disagree, so it is not used.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.scoring import extract_term_scores
from repro.core.sigma import heuristic_sigma, select_sigma, default_sigma_grid
from repro.errors import TrainingError
from repro.stats.crossval import train_control_split
from repro.stats.gaussian import gaussian_sum_cdf, logistic_sum_cdf
from repro.text.analysis import DocumentStats

VALID_KINDS = ("logistic", "erf")


@dataclass(frozen=True)
class Rstf:
    """One term's trained transformation function.

    Attributes
    ----------
    mus:
        Sorted training scores (the Gaussian/logistic centres μ_i).
    sigma:
        Steepness parameter σ.
    kind:
        ``"logistic"`` — the paper's Eq. 8 closed form (default);
        ``"erf"`` — the exact Gaussian integral of Eq. 6.
    mus_array:
        ``mus`` as a float array, built once: every transform reads it,
        and converting the tuple per call cost more than the curve.
    """

    mus: tuple[float, ...]
    sigma: float
    kind: str = "logistic"
    mus_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.mus:
            raise TrainingError("RSTF requires at least one training score")
        if self.sigma <= 0:
            raise TrainingError("sigma must be positive")
        if self.kind not in VALID_KINDS:
            raise TrainingError(f"kind must be one of {VALID_KINDS}")
        if any(m < 0 for m in self.mus):
            raise TrainingError("relevance scores are non-negative")
        object.__setattr__(self, "mus_array", np.asarray(self.mus, dtype=float))

    @classmethod
    def from_scores(
        cls, scores: Iterable[float], sigma: float, kind: str = "logistic"
    ) -> "Rstf":
        """Build from raw (unsorted) training scores."""
        return cls(mus=tuple(sorted(float(s) for s in scores)), sigma=sigma, kind=kind)

    def transform(self, x: float | np.ndarray) -> float | np.ndarray:
        """TRS for score(s) *x*; accepts a scalar or an array.

        Output lies in (0, 1) and is strictly increasing in *x* (property 3
        of §4.2) because it is a positive mixture of increasing curves.
        """
        if self.kind == "logistic":
            result = logistic_sum_cdf(x, self.mus_array, self.sigma)
        else:
            result = gaussian_sum_cdf(x, self.mus_array, self.sigma)
        if np.ndim(x) == 0:
            return float(result)
        return np.asarray(result)


def train_rstf(scores: Iterable[float], sigma: float, kind: str = "logistic") -> Rstf:
    """Train one term's RSTF with a fixed σ."""
    score_list = list(scores)
    if not score_list:
        raise TrainingError("cannot train an RSTF on an empty score set")
    return Rstf.from_scores(score_list, sigma=sigma, kind=kind)


class RstfModel:
    """The published per-term RSTF registry (paper §5: "Zerber+R
    initializes and publishes the RSTF for each term in the training
    document set").

    Unseen terms get ``None`` from :meth:`get`; :meth:`transform` instead
    accepts an ``unseen_trs`` callable (typically
    :meth:`repro.crypto.GroupKeyService.unseen_term_prf` composed with
    ``evaluate_unit``) implementing the paper's random-TRS rule.
    """

    def __init__(self, functions: Mapping[str, Rstf]) -> None:
        self._functions = dict(functions)

    @property
    def num_terms(self) -> int:
        return len(self._functions)

    def terms(self) -> set[str]:
        return set(self._functions)

    def get(self, term: str) -> Rstf | None:
        """The RSTF of *term*, or ``None`` if the term was not trained."""
        return self._functions.get(term)

    def __contains__(self, term: object) -> bool:
        return term in self._functions

    def transform(
        self,
        term: str,
        score: float,
        unseen_trs: Callable[[str], float] | None = None,
    ) -> float:
        """TRS of *score* for *term*.

        ``unseen_trs(term) -> float in [0,1]`` handles training-unseen terms;
        without it, unseen terms raise :class:`TrainingError` so silent
        misconfiguration cannot slip through.
        """
        rstf = self._functions.get(term)
        if rstf is not None:
            return float(rstf.transform(score))
        if unseen_trs is None:
            raise TrainingError(f"no RSTF trained for term {term!r}")
        trs = float(unseen_trs(term))
        if not 0.0 <= trs <= 1.0:
            raise TrainingError("unseen-term TRS must lie in [0, 1]")
        return trs

    def transform_many(
        self,
        terms: Sequence[str],
        scores: Sequence[float],
        unseen_trs: Callable[[str], float] | None = None,
    ) -> list[float]:
        """TRS of every ``(terms[i], scores[i])`` pair of one document.

        Equal, bit for bit, to calling :meth:`transform` pair by pair.
        The logistic terms share one vectorised curve evaluation (see the
        module docstring); ``erf`` and training-unseen terms take the
        scalar path, with its range check and its :class:`TrainingError`
        when *unseen_trs* is missing.
        """
        if len(terms) != len(scores):
            raise ValueError("terms and scores must pair up")
        result = [0.0] * len(terms)
        batched: list[int] = []
        arrays: list[np.ndarray] = []
        neg_sigmas: list[float] = []
        for index, term in enumerate(terms):
            rstf = self._functions.get(term)
            if rstf is None or rstf.kind != "logistic":
                result[index] = self.transform(term, scores[index], unseen_trs)
            else:
                batched.append(index)
                arrays.append(rstf.mus_array)
                neg_sigmas.append(-rstf.sigma)
        if batched:
            lengths = [array.size for array in arrays]
            x = np.repeat(np.array([scores[i] for i in batched], dtype=float), lengths)
            z = np.repeat(np.array(neg_sigmas), lengths) * (x - np.concatenate(arrays))
            curves = 1.0 / (1.0 + np.exp(np.clip(z, -700.0, 700.0)))
            start = 0
            for index, n in zip(batched, lengths):
                result[index] = float(np.add.reduce(curves[start : start + n]) / n)
                start += n
        return result


@dataclass(frozen=True)
class TrainerConfig:
    """RSTF training policy.

    Attributes
    ----------
    kind:
        Curve family (``"logistic"`` per Eq. 8, or ``"erf"``).
    sigma_strategy:
        ``"cv"`` — per-term cross-validated σ over ``sigma_grid`` (the
        paper's method, Fig. 9); ``"heuristic"`` — the direct spacing-based
        estimate (the paper's "future research" direction, see
        :func:`repro.core.sigma.heuristic_sigma`); ``"fixed"`` — use
        ``fixed_sigma`` for every term.
    sigma_grid:
        Candidate σ values for the CV strategy (``None`` = default grid).
    fixed_sigma:
        σ for the fixed strategy.
    min_cv_scores:
        Terms with fewer training scores than this fall back to the
        heuristic (cross-validation needs a meaningful control split).
    control_fraction:
        Fraction of each term's scores held out as the CV control set
        (paper §6.1.2: about one third).
    seed:
        Seed for the train/control split.
    """

    kind: str = "logistic"
    sigma_strategy: str = "cv"
    sigma_grid: tuple[float, ...] | None = None
    fixed_sigma: float = 100.0
    min_cv_scores: int = 6
    control_fraction: float = 1.0 / 3.0
    seed: int = 29

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise TrainingError(f"kind must be one of {VALID_KINDS}")
        if self.sigma_strategy not in ("cv", "heuristic", "fixed"):
            raise TrainingError("sigma_strategy must be cv|heuristic|fixed")
        if self.fixed_sigma <= 0:
            raise TrainingError("fixed_sigma must be positive")
        if self.min_cv_scores < 4:
            raise TrainingError("min_cv_scores must be >= 4")


class RstfTrainer:
    """Trains an :class:`RstfModel` from a training document sample."""

    def __init__(self, config: TrainerConfig | None = None) -> None:
        self.config = config if config is not None else TrainerConfig()

    def train_from_documents(self, documents: Iterable[DocumentStats]) -> RstfModel:
        """Offline pre-computing phase (paper §5): one RSTF per seen term."""
        return self.train_from_scores(extract_term_scores(documents))

    def train_from_scores(self, term_scores: Mapping[str, list[float]]) -> RstfModel:
        """Train from precomputed ``term -> scores`` (useful for tests)."""
        functions: dict[str, Rstf] = {}
        rng = np.random.default_rng(self.config.seed)
        for term in sorted(term_scores):
            scores = term_scores[term]
            if not scores:
                continue
            sigma = self._choose_sigma(scores, rng)
            functions[term] = Rstf.from_scores(scores, sigma=sigma, kind=self.config.kind)
        if not functions:
            raise TrainingError("training set produced no term scores")
        return RstfModel(functions)

    def _choose_sigma(self, scores: list[float], rng: np.random.Generator) -> float:
        cfg = self.config
        if cfg.sigma_strategy == "fixed":
            return cfg.fixed_sigma
        if cfg.sigma_strategy == "heuristic" or len(scores) < cfg.min_cv_scores:
            return heuristic_sigma(scores)
        train, control = train_control_split(
            scores, control_fraction=cfg.control_fraction, rng=rng
        )
        if not train or not control:
            return heuristic_sigma(scores)
        grid = cfg.sigma_grid if cfg.sigma_grid is not None else default_sigma_grid()
        selection = select_sigma(train, control, grid=grid, kind=cfg.kind)
        return selection.best_sigma
