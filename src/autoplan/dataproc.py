"""Profile array processing for the pipeline planning environments.

Raw per-instruction profiles hold three parallel arrays: compute cost C,
activation bytes A at each potential cut, and parameter bytes W.  C and W
are accumulated into prefix sums (A already describes single cut points and
stays as is), all three are coarsened onto a fixed grid by right-endpoint
sampling, and finally scaled jointly by one shared maximum so their relative
magnitudes survive.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from autoplan.ir import load_json, number

GRANULARITY = 128

# distribution name -> draw(rng, n) in [0, 1]
_BINOMIAL_N = 100
_NORMAL_LOC = 0.5
_NORMAL_SCALE = 0.15


class ProfileError(Exception):
    """Raised for malformed profile inputs."""


@dataclass(frozen=True)
class ProfileArrays:
    """Raw per-instruction profile columns."""

    c: np.ndarray
    a: np.ndarray
    w: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not (len(self.c) == len(self.a) == len(self.w)):
            raise ProfileError("profile columns must have equal length")
        if len(self.c) == 0:
            raise ProfileError("profile must not be empty")
        for arr in (self.c, self.a, self.w):
            # NaN compares false with 0, so it needs its own check
            if not np.all(np.isfinite(arr)) or np.any(np.asarray(arr) < 0):
                raise ProfileError("profile values must be finite and non-negative")
        if self.names is not None and len(self.names) != len(self.c):
            raise ProfileError("names must match the column length")


@dataclass(frozen=True)
class CoarsenedArrays:
    """Fixed-grid, jointly normalized environment arrays.

    ``c`` and ``w`` are coarsened prefix sums (nondecreasing), ``a`` holds
    per-cut activation payloads; all three live in [0, 1] and at least one
    touches 1 unless the whole profile was zero.
    """

    c: np.ndarray
    a: np.ndarray
    w: np.ndarray


def prefix_sum(xs: np.ndarray) -> np.ndarray:
    """Inclusive prefix sum of a non-negative array."""
    arr = np.asarray(xs, dtype=np.float64)
    if np.any(arr < 0):
        raise ProfileError("prefix_sum input must be non-negative")
    return np.cumsum(arr)


def coarsen(xs: np.ndarray) -> np.ndarray:
    """Sample an array down to ``GRANULARITY`` points by right endpoints.

    Output point i takes the source value at index floor((i+1)*N/GRANULARITY)-1,
    so the final source value is always kept.  Shorter inputs are right
    padded with their last value first, which adds no mass to prefix arrays.
    """
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise ProfileError("coarsen expects a non-empty 1-d array")
    n = len(arr)
    if n < GRANULARITY:
        arr = np.concatenate([arr, np.full(GRANULARITY - n, arr[-1])])
        n = GRANULARITY
    idx = (np.arange(1, GRANULARITY + 1) * n) // GRANULARITY - 1
    return arr[idx]


def normalize_joint(
    c: np.ndarray, a: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale all three arrays by their single shared maximum."""
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    peak = max(c.max(initial=0.0), a.max(initial=0.0), w.max(initial=0.0))
    if peak <= 0:
        return c.copy(), a.copy(), w.copy()
    return c / peak, a / peak, w / peak


def build_environment_arrays(profile: ProfileArrays) -> CoarsenedArrays:
    """Full pipeline from a raw profile to environment arrays."""
    c_star = coarsen(prefix_sum(profile.c))
    a_star = coarsen(np.asarray(profile.a, dtype=np.float64))
    w_star = coarsen(prefix_sum(profile.w))
    c_star, a_star, w_star = normalize_joint(c_star, a_star, w_star)
    return CoarsenedArrays(c=c_star, a=a_star, w=w_star)


def generate_environment(distribution: str, n: int, seed: int) -> CoarsenedArrays:
    """Draw a synthetic profile and run it through the array pipeline.

    Distributions: ``uniform`` U[0,1], ``normal`` N(0.5, 0.15) clipped to
    [0,1], ``binomial`` B(100, 0.5) scaled by its trial count.
    """
    if n < 1:
        raise ProfileError("environment length must be >= 1")
    rng = np.random.default_rng(seed)

    def draw() -> np.ndarray:
        if distribution == "uniform":
            return rng.uniform(0.0, 1.0, n)
        if distribution == "normal":
            return np.clip(rng.normal(_NORMAL_LOC, _NORMAL_SCALE, n), 0.0, 1.0)
        if distribution == "binomial":
            return rng.binomial(_BINOMIAL_N, 0.5, n) / _BINOMIAL_N
        raise ProfileError(f"unknown distribution {distribution!r}")

    profile = ProfileArrays(c=draw(), a=draw(), w=draw())
    return build_environment_arrays(profile)


def load_profile(path: str) -> ProfileArrays:
    """Read a profile from JSON ({"names", "C", "A", "W"}) or CSV.

    CSV needs a header naming the columns name, C, A, W (case insensitive;
    compute_ms, activation_bytes and param_bytes are accepted aliases); JSON
    keys are case insensitive.  Two columns for one field are refused.
    """
    if path.endswith(".csv"):
        return _load_profile_csv(path)
    data = load_json(path, ProfileError)
    if not isinstance(data, dict):
        raise ProfileError(f"{path} must hold a JSON object of profile columns")
    keys: dict[str, str] = {}
    for key in data:
        if keys.setdefault(key.lower(), key) != key:
            raise ProfileError(f"{path} has two columns for one field: {keys[key.lower()]!r} and {key!r}")
    lowered = {field: data[key] for field, key in keys.items()}
    try:
        c, a, w = (_column(lowered[key], key.upper()) for key in "caw")
        names = lowered.get("names")
        if names is not None and not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValueError(f"names {names!r} is not an array of strings")
        return ProfileArrays(c=c, a=a, w=w, names=tuple(names) if names is not None else None)
    except KeyError as exc:
        raise ProfileError(f"{path} is missing profile column {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ProfileError(f"{path} has a malformed profile column: {exc}") from exc


def _column(values, field: str) -> np.ndarray:
    """A JSON profile column: an array of numbers, none a boolean or a string."""
    if not isinstance(values, list):
        raise ValueError(f"{field} {values!r} is not an array")
    return np.array([number(v, field) for v in values], dtype=np.float64)


_CSV_ALIASES = {
    "name": "name",
    "c": "c",
    "compute_ms": "c",
    "a": "a",
    "activation_bytes": "a",
    "w": "w",
    "param_bytes": "w",
}


def _load_profile_csv(path: str) -> ProfileArrays:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ProfileError(f"{path} has no CSV header")
            fields = {}
            for raw in reader.fieldnames:
                key = _CSV_ALIASES.get(raw.strip().lower())
                if key in fields:
                    raise ProfileError(f"{path} has two columns for one field: {fields[key]!r} and {raw!r}")
                if key:
                    fields[key] = raw
            missing = {"c", "a", "w"} - set(fields)
            if missing:
                raise ProfileError(f"{path} is missing columns {sorted(missing)}")
            names, c, a, w = [], [], [], []
            for row in reader:
                # DictReader fills the fields a short row lacks with None, and
                # keys the surplus of a long row by None
                if None in row or None in row.values():
                    raise ProfileError(f"{path} line {reader.line_num} does not match its header")
                if "name" in fields:
                    names.append(row[fields["name"]])
                c.append(float(row[fields["c"]]))
                a.append(float(row[fields["a"]]))
                w.append(float(row[fields["w"]]))
    except OSError as exc:
        raise ProfileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ProfileError(f"{path} has a non-numeric profile value: {exc}") from exc
    return ProfileArrays(
        c=np.asarray(c),
        a=np.asarray(a),
        w=np.asarray(w),
        names=tuple(names) if names else None,
    )
