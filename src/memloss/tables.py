"""Tabulated tails: the table every layer returns, and the empirical tail
of sampled first-passage times that both Monte Carlo oracles report."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DepthError, ParamError

_RETURN_LABELS = {"h_k", "lebesgue", "r", "s_tail"}


@dataclass(frozen=True)
class TailTable:
    """Tabulated nonincreasing tail, values[n] = t(n) for n = 0..n_max.

    Labels: "h_k" (reference-measure return tail), "lebesgue", "r"
    (measure tail), "s_tail" (tail of the coupled random sum), "theta"
    (deviation supremum), "mc" (Monte Carlo estimate, carries stderr),
    "memloss", "mixing".
    """

    values: np.ndarray
    k: int = 1
    label: str = "h_k"
    stderr: np.ndarray | None = None
    notes: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or len(v) < 2:
            raise ParamError("tail table needs a 1-D value array with >= 2 entries")
        if self.label in _RETURN_LABELS | {"theta", "memloss", "mixing"}:
            if not np.all((v >= -1e-12) & (v <= 1.0 + 1e-9)):  # so that NaN fails
                raise ParamError(f"{self.label} values must lie in [0, 1]")
        if self.label in _RETURN_LABELS | {"theta"}:
            if not np.all(np.diff(v) <= 1e-12):
                raise ParamError(f"{self.label} table must be nonincreasing")
        if self.label in ("h_k", "lebesgue") and not (
            abs(v[0] - 1.0) <= 1e-12 and abs(v[1] - 1.0) <= 1e-9
        ):
            raise ParamError("return-time tails must have t(0) = t(1) = 1")

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def value(self, n: int) -> float:
        if not (0 <= n <= self.n_max):
            raise DepthError(f"tail tabulated to n = {self.n_max}, asked for {n}")
        return float(self.values[n])

    def __getitem__(self, n: int) -> float:
        return self.value(n)

    def __len__(self) -> int:
        return len(self.values)


def empirical_tail(times: np.ndarray, n_max: int, k: int = 1) -> TailTable:
    """P(T >= n) for n = 0..n_max over the sampled integer times T >= 0
    (times past n_max count as censored there), with binomial standard
    errors: exact integer counts divided by the sample count."""
    samples = len(times)
    counts = np.bincount(np.minimum(times, n_max + 1), minlength=n_max + 2)
    survivors = samples - np.concatenate([[0], np.cumsum(counts[:-1])])
    t = survivors[: n_max + 1] / samples
    stderr = np.sqrt(np.maximum(t * (1.0 - t), 0.0) / samples)
    return TailTable(values=t, k=k, label="mc", stderr=stderr, notes={"samples": samples})
