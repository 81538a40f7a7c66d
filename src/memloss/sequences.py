"""Time-dependent parameter sequences and their frequency statistics.

A :class:`ParamSequence` produces the map acting at each time step k >= 1.
Four kinds are supported: explicit finite lists, periodic cycles, i.i.d.
draws from a finite support, and finite-state Markov chains.  Random kinds
are driven by SplitMix64 streams keyed by (seed, k), so ``param_at`` is
reproducible and independent of evaluation order; Markov chains cache
their sampled prefix behind a lock (append-only, so concurrent readers
are safe).

The analysis operations count "good" entries (intermittency parameter at
or below a threshold), estimate the empirical frequency window (a, kappa,
N) from prefix ratios, and tabulate the deviation profile of running
good-map frequencies from a target value b.  All reported suprema are
taken over the tabulated range only; no almost-sure claim about the
infinite sequence is made.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Sequence as SeqType

import numpy as np

from . import rng
from .errors import ConfigError, DepthError, NoGoodMaps, ParamError, check_config, has_type
from .maps import Family, MapParams, cui, grossmann_horner, lsv, pikovsky, validate_params
from .tables import TailTable


@dataclass(frozen=True)
class ParamSequence:
    """A lazily evaluated sequence of map parameters, indexed from k = 1."""

    kind: str  # "explicit" | "periodic" | "iid" | "markov"
    family: Family
    entries: tuple[MapParams, ...]
    probs: tuple[float, ...] | None = None
    transition: tuple[tuple[float, ...], ...] | None = None
    init: tuple[float, ...] | None = None
    seed: int = 0
    _markov_cache: list = field(default_factory=list, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)


def _common_family(entries: SeqType[MapParams]) -> Family:
    if not entries:
        raise ParamError("a sequence needs at least one entry")
    fam = entries[0].family
    for p in entries:
        if p.family is not fam:
            raise ParamError("all entries must share one family tag")
        validate_params(p)
    return fam


def explicit(entries: SeqType[MapParams]) -> ParamSequence:
    return ParamSequence("explicit", _common_family(entries), tuple(entries))


def periodic(cycle: SeqType[MapParams]) -> ParamSequence:
    return ParamSequence("periodic", _common_family(cycle), tuple(cycle))


def constant(params: MapParams) -> ParamSequence:
    """Stationary sequence repeating a single map."""
    return periodic([params])


def iid(support: SeqType[MapParams], probs: SeqType[float], seed: int) -> ParamSequence:
    fam = _common_family(support)
    p = np.asarray(probs, dtype=float)
    if len(p) != len(support):
        raise ParamError("probs must match the support length")
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-12:
        raise ParamError("probs must be nonnegative and sum to 1 within 1e-12")
    return ParamSequence("iid", fam, tuple(support), probs=tuple(p), seed=int(seed))


def stationary_law(transition: np.ndarray) -> np.ndarray:
    """Left eigenvector of the transition matrix for eigenvalue 1, normalized."""
    vals, vecs = np.linalg.eig(transition.T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, i])
    v = np.abs(v)
    return v / v.sum()


def markov(
    support: SeqType[MapParams],
    transition: SeqType[SeqType[float]],
    seed: int,
    init: SeqType[float] | None = None,
) -> ParamSequence:
    """Markov sequence over a finite support.

    If ``init`` is omitted the chain starts from the stationary law of the
    transition matrix, so shift-invariance and ergodicity hold whenever the
    matrix is irreducible.
    """
    fam = _common_family(support)
    t = np.asarray(transition, dtype=float)
    if t.shape != (len(support), len(support)):
        raise ParamError("transition matrix shape must match the support")
    if np.any(t < 0.0) or np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-12:
        raise ParamError("transition rows must be nonnegative and sum to 1 within 1e-12")
    law = stationary_law(t) if init is None else np.asarray(init, dtype=float)
    if abs(law.sum() - 1.0) > 1e-10 or np.any(law < -1e-15):
        raise ParamError("initial law must be a probability vector")
    return ParamSequence(
        "markov",
        fam,
        tuple(support),
        transition=tuple(tuple(row) for row in t),
        init=tuple(law),
        seed=int(seed),
    )


# -- element access -----------------------------------------------------------


def _iid_indices(seq: ParamSequence, ks: np.ndarray) -> np.ndarray:
    u = rng.uniforms(seq.seed, "iid", ks)
    cum = np.cumsum(seq.probs)
    return np.minimum(np.searchsorted(cum, u, side="right"), len(seq.entries) - 1)


def _markov_states(seq: ParamSequence, last: int) -> list[int]:
    """The cached states at base indices 1..last or more, extending the
    cache under the lock: one ``rng.uniforms`` call for the missing range,
    then one ``searchsorted`` per step."""
    cache = seq._markov_cache
    if last <= len(cache):
        return cache
    with seq._lock:
        start = len(cache) + 1
        us = rng.uniforms(seq.seed, "markov", np.arange(start, last + 1)).tolist()
        cum_rows = np.cumsum(np.asarray(seq.transition), axis=1)
        cum_init = np.cumsum(seq.init)
        top = len(seq.entries) - 1
        for u in us:
            cum = cum_rows[cache[-1]] if cache else cum_init
            cache.append(min(int(np.searchsorted(cum, u, side="right")), top))
    return cache


def _entry_indices(seq: ParamSequence, k: int, length: int) -> np.ndarray:
    """Indices into ``seq.entries`` of the elements k .. k+length-1."""
    if k < 1:
        raise ParamError(f"k must be >= 1, got {k}")
    if length < 0:
        raise ParamError("length must be >= 0")
    last = k + length - 1
    n = len(seq.entries)
    if seq.kind == "explicit":
        if length and last > n:
            raise DepthError(f"explicit sequence has {n} entries, asked for {last}")
        return np.arange(k - 1, last)
    ks = np.arange(k, last + 1)
    if seq.kind == "periodic":
        return (ks - 1) % n
    if seq.kind == "iid":
        return _iid_indices(seq, ks)
    return np.asarray(_markov_states(seq, last)[k - 1 : last], dtype=np.intp)


def param_at(seq: ParamSequence, k: int) -> MapParams:
    """The map acting at time k (k >= 1)."""
    return seq.entries[int(_entry_indices(seq, k, 1)[0])]


def gammas(seq: ParamSequence, k: int, length: int) -> np.ndarray:
    """Bulk gamma_j for j = k .. k+length-1."""
    return np.asarray([p.gamma for p in seq.entries])[_entry_indices(seq, k, length)]


# -- frequency statistics ------------------------------------------------------


def _running_frequency(seq: ParamSequence, threshold: float, n_max: int) -> np.ndarray:
    """count(1..n) / n for n = 1..n_max: exact integer counts over exact integers."""
    return np.cumsum(gammas(seq, 1, n_max) <= threshold) / np.arange(1, n_max + 1)


@dataclass(frozen=True)
class FrequencyWindow:
    a: float
    kappa: float
    N: int


def check_frequency(seq: ParamSequence, threshold: float, n_max: int) -> FrequencyWindow:
    """Tightest empirical window [a(1-kappa), a(1+kappa)] containing the
    good-map frequency for all N <= n <= n_max, with N <= n_max / 2.

    kappa is minimized over admissible N; among N achieving the minimum the
    smallest is returned.  The estimate is per-realization: for random
    kinds it describes the sampled prefix only.
    """
    if n_max < 10:
        raise ParamError("n_max must be >= 10")
    ratios = _running_frequency(seq, threshold, n_max)
    if ratios[-1] == 0:
        raise NoGoodMaps(f"no entry with gamma <= {threshold} in the first {n_max}")
    n_half = n_max // 2
    # suffix extrema of ratios over [N, n_max] for N = 1 .. n_half
    suf_min = np.minimum.accumulate(ratios[::-1])[::-1][:n_half]
    suf_max = np.maximum.accumulate(ratios[::-1])[::-1][:n_half]
    with np.errstate(invalid="ignore", divide="ignore"):
        kappas = (suf_max - suf_min) / (suf_max + suf_min)
    kappas = np.where(suf_max + suf_min > 0.0, kappas, np.inf)
    best = float(np.min(kappas))
    n_idx = int(np.argmax(kappas <= best + 1e-15))
    a = 0.5 * (suf_min[n_idx] + suf_max[n_idx])
    return FrequencyWindow(a=float(a), kappa=float(kappas[n_idx]), N=n_idx + 1)


def theta_profile(seq: ParamSequence, threshold: float, b: float, n_max: int):
    """Deviation profile of the running good-map frequency from b.

    Returns a TailTable whose value at n >= 1 is the suffix supremum
    sup over ell in [n, n_max] of |count(1..ell)/ell - b| (a supremum over
    the tabulated range only, as flagged in the notes); the raw deviation
    profile theta[n-1] = |count(1..n)/n - b| rides along in the notes.
    """
    if not (0.0 < b <= 1.0):
        raise ParamError("b must lie in (0, 1]")
    theta = np.abs(_running_frequency(seq, threshold, n_max) - b)
    sup_tail = np.maximum.accumulate(theta[::-1])[::-1]
    return TailTable(
        values=np.concatenate([[sup_tail[0]], sup_tail]),
        label="theta",
        notes={"b": b, "theta": theta, "tabulated_range_supremum": True},
    )


# -- JSON config ingestion -----------------------------------------------------

_FAMILY_NAMES = {f.value: f for f in Family}

_CONFIG_KEYS = {"kind": "string", "family": "string", "support": "list", "cycle": "list", "seed": "integer",
                "probs": "list of number", "init": "list of number", "transition": "list of list of number"}


def _entry_to_params(entry, family: Family) -> MapParams:
    values = {"gamma": float(entry)} if has_type(entry, "number") else entry
    if not (isinstance(values, dict) and all(has_type(v, "number") for v in values.values())):
        raise ConfigError(f"sequence entry must be a number or an object of numbers, got {entry!r}")
    try:
        if family is Family.LSV:
            return lsv(values["gamma"])
        if family is Family.CUI:
            return cui(values["gamma"], values["beta"])
        if family is Family.PIKOVSKY:
            return pikovsky(values["gamma"])
        return grossmann_horner()
    except KeyError as e:
        raise ConfigError(f"sequence entry {entry!r} is missing key {e}") from None
    except ParamError as e:
        raise ConfigError(str(e)) from None


def sequence_from_config(config: dict) -> ParamSequence:
    """Build a ParamSequence from a JSON-style dict.

    Schema: {"kind": "iid"|"markov"|"periodic"|"explicit", "family": str,
    "support": [...], "probs": [...], "transition": [[...]], "init": [...],
    "seed": int, "cycle": [...]}.  Periodic and explicit sequences list
    their entries under "cycle".  Unknown keys and mistyped values are rejected.
    """
    check_config(config, _CONFIG_KEYS, "sequence config")
    try:
        kind = config["kind"]
        family = _FAMILY_NAMES[config["family"]]
    except KeyError as e:
        raise ConfigError(f"sequence config is missing or has invalid key {e}") from None
    try:
        if kind in ("periodic", "explicit"):
            entries = [_entry_to_params(e, family) for e in config["cycle"]]
            return periodic(entries) if kind == "periodic" else explicit(entries)
        if kind == "iid":
            support = [_entry_to_params(e, family) for e in config["support"]]
            return iid(support, config["probs"], config["seed"])
        if kind == "markov":
            support = [_entry_to_params(e, family) for e in config["support"]]
            return markov(support, config["transition"], config["seed"], config.get("init"))
    except KeyError as e:
        raise ConfigError(f"sequence config for kind={kind!r} is missing key {e}") from None
    except ParamError as e:
        raise ConfigError(str(e)) from None
    raise ConfigError(f"unknown sequence kind {kind!r}")


def _load_json(path: str):
    """The parsed JSON file; an unreadable or malformed file is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: invalid JSON: {e.msg}") from None
    except OSError as e:
        raise ConfigError(str(e)) from None


def load_sequence(path: str) -> ParamSequence:
    return sequence_from_config(_load_json(path))
