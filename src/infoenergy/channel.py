"""Finite-alphabet probability and channel primitives.

Alphabet symbols are real signal levels, so cost and received-energy
functions can be stored as per-symbol lookup tables and arbitrary c(.) / b(.)
are supported.  Every container is immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closedform import AlphabetMismatchError, ChannelFormatError, InfeasibleError

# Probability vectors within this tolerance of summing to 1 are renormalized
# exactly; anything further off is rejected.
PMF_TOL = 1e-9

CHANNEL_FILE_KEYS = {"input_alphabets", "output_alphabet", "transition", "cost", "energy"}


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Alphabet:
    """Ordered set of distinct real symbols; indexing is by position."""

    symbols: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.symbols)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("alphabet must be a nonempty 1-D list of symbols")
        ordered = np.sort(arr)  # NaNs sort last, so a NaN before the end has a twin
        if ((ordered[1:] == ordered[:-1]) | np.isnan(ordered[:-1])).any():
            raise ValueError("alphabet symbols must be pairwise distinct")
        object.__setattr__(self, "symbols", arr)

    def __len__(self) -> int:
        return self.symbols.size


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function aligned positionally with an Alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf must be a nonempty 1-D vector")
        if not (np.isfinite(arr) & (arr >= 0)).all():
            raise ValueError("pmf entries must be finite and nonnegative")
        total = arr.sum()
        if abs(total - 1.0) > PMF_TOL:
            raise ValueError(f"pmf entries sum to {float(total)!r}, not 1")
        arr /= total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, n: int) -> "Pmf":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def degenerate(cls, n: int, index: int) -> "Pmf":
        p = np.zeros(n)
        p[index] = 1.0
        return cls(p)


@lru_cache(maxsize=None)
def _simplex_grid_cached(dim: int, steps: int):
    if dim == 1:
        grid = np.ones((1, 1))
    else:
        # Integer compositions of t, one symbol at a time: every row splits
        # into one child per count its remainder allows, in ascending order.
        t = steps - 1
        cols, left = [], np.array([t])
        for _ in range(dim - 1):
            reps = left + 1
            k = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
            cols = [np.repeat(c, reps) for c in cols] + [k]
            left = np.repeat(left, reps) - k
        grid = np.column_stack(cols + [left]) / t
    grid.setflags(write=False)
    return grid


def simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All pmfs on `dim` symbols with entries k/(steps-1), read-only and cached.

    There are C(steps-2+dim, dim-1) rows, in lexicographic order of their
    entries, each exactly its integer counts divided by steps-1.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if dim > 1 and steps < 2:
        raise ValueError("need at least 2 grid points per dimension")
    return _simplex_grid_cached(dim, steps)


@dataclass(frozen=True, eq=False)
class _SymbolTable:
    """Finite, nonnegative value per symbol, stored as a read-only vector."""

    values: np.ndarray
    _what = "table"  # names the table in error messages

    def __post_init__(self):
        arr = _frozen(self.values)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"{self._what} table must be a nonempty 1-D vector")
        if not (np.isfinite(arr) & (arr >= 0)).all():
            raise ValueError(f"{self._what} values must be finite and nonnegative")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class CostFn(_SymbolTable):
    """Per-input-symbol transmit cost in energy units per channel use."""

    _what = "cost"


@dataclass(frozen=True, eq=False)
class EnergyFn(_SymbolTable):
    """Per-output-symbol harvested/received energy per channel use."""

    _what = "energy"


@dataclass(frozen=True, eq=False)
class AwgnSpec:
    """Additive white Gaussian noise channel, used only by closed-form solvers."""

    n0: float

    def __post_init__(self):
        if not 0 < self.n0 < np.inf:
            raise ValueError("noise variance must be positive and finite")


@dataclass(frozen=True, eq=False)
class DmChannel:
    """Discrete memoryless channel with one or two input alphabets.

    The transition tensor has shape (|X|, |Y|) for a point-to-point channel
    and (|X1|, |X2|, |Y|) for a two-sender channel; each row (fixed input
    tuple) is a valid pmf over the output alphabet.
    """

    input_alphabets: tuple
    output_alphabet: Alphabet
    transition: np.ndarray

    def __post_init__(self):
        alphas = tuple(self.input_alphabets)
        if len(alphas) not in (1, 2):
            raise ValueError("a channel has one or two input alphabets")
        W = np.array(self.transition, dtype=float)
        expected = tuple(len(a) for a in alphas) + (len(self.output_alphabet),)
        if W.shape != expected:
            raise ValueError(f"transition shape {W.shape} != expected {expected}")
        rows = W.reshape(-1, W.shape[-1])
        bad = np.flatnonzero(~(np.isfinite(rows) & (rows >= 0)).all(axis=1))
        if bad.size:
            raise ValueError(
                f"transition row {bad[0]} has an entry that is not finite and nonnegative")
        rows = np.where(rows < np.finfo(float).tiny, 0.0, rows)  # flush subnormals
        sums = rows.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > PMF_TOL)
        if bad.size:
            raise ValueError(
                f"transition row {bad[0]} sums to {float(sums[bad[0]])!r}, not 1"
            )
        W = (rows / sums[:, None]).reshape(expected)
        W.setflags(write=False)
        object.__setattr__(self, "input_alphabets", alphas)
        object.__setattr__(self, "transition", W)

    @property
    def is_mac(self) -> bool:
        return len(self.input_alphabets) == 2

    @classmethod
    def point_to_point(cls, x: Alphabet, y: Alphabet, matrix) -> "DmChannel":
        return cls((x,), y, matrix)

    @classmethod
    def mac(cls, x1: Alphabet, x2: Alphabet, y: Alphabet, tensor) -> "DmChannel":
        return cls((x1, x2), y, tensor)

    @classmethod
    def noiseless(cls, alphabet: Alphabet) -> "DmChannel":
        return cls.point_to_point(alphabet, alphabet, np.eye(len(alphabet)))


def _check_len(name: str, obj, n: int):
    if len(obj) != n:
        raise AlphabetMismatchError(f"{name} has length {len(obj)}, expected {n}")


def expected_cost(p: Pmf, c) -> float:
    """Mean per-use cost (or energy) of a symbol drawn from p."""
    _check_len("cost table", c, len(p))
    return float(p.probs @ c.values)


def mac_output_pmf(p1: Pmf, p2: Pmf, ch: DmChannel) -> Pmf:
    """Output pmf induced by independent inputs p1, p2 on a two-sender channel."""
    if not ch.is_mac:
        raise AlphabetMismatchError("channel does not have two inputs")
    _check_len("p1", p1, len(ch.input_alphabets[0]))
    _check_len("p2", p2, len(ch.input_alphabets[1]))
    out = np.einsum("i,j,ijy->y", p1.probs, p2.probs, ch.transition)
    return Pmf(np.maximum(out, 0.0))


def expected_received_energy(p1: Pmf, p2: Pmf, ch: DmChannel, b: EnergyFn) -> float:
    """Mean per-use received energy E[b(Y)] under independent inputs."""
    _check_len("energy table", b, len(ch.output_alphabet))
    return expected_cost(mac_output_pmf(p1, p2, ch), b)


# ---------------------------------------------------------------------------
# Channel specification files
# ---------------------------------------------------------------------------
#
# A channel file is a JSON object with exactly the keys
#   input_alphabets : list of 1 or 2 lists of numbers
#   output_alphabet : list of numbers
#   transition      : row-major matrix; rows indexed by input tuple in
#                     lexicographic alphabet order (first input major)
#   cost            : per-input-symbol table, one list per input alphabet
#                     (a flat list is accepted for single-input channels)
#   energy          : per-output-symbol table
# Unknown keys are rejected.


def load_channel_file(path):
    """Parse and validate a channel file.

    Returns (DmChannel, tuple of CostFn, EnergyFn).  Raises
    ChannelFormatError with a row-precise message on any violation.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ChannelFormatError(f"{path}: cannot read ({exc})") from exc
    if not text.strip():
        raise ChannelFormatError(f"{path}: file is empty")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ChannelFormatError(f"{path}: top level must be an object")

    unknown = set(doc) - CHANNEL_FILE_KEYS
    if unknown:
        raise ChannelFormatError(f"{path}: unknown keys {sorted(unknown)}")
    missing = CHANNEL_FILE_KEYS - set(doc)
    if missing:
        raise ChannelFormatError(f"{path}: missing keys {sorted(missing)}")

    def _numbers(val, what):
        if not isinstance(val, list) or not val or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in val
        ):
            raise ChannelFormatError(f"{path}: {what} must be a nonempty list of numbers")
        vals = [float(v) for v in val]
        if not np.isfinite(vals).all():
            raise ChannelFormatError(f"{path}: {what} holds a non-finite number")
        return vals

    def _built(where, make, *args):
        """make(*args), with its ValueError re-raised as a format error."""
        try:
            return make(*args)
        except ValueError as exc:
            raise ChannelFormatError(f"{path}: {where}{exc}") from exc

    raw_inputs = doc["input_alphabets"]
    if not isinstance(raw_inputs, list) or len(raw_inputs) not in (1, 2):
        raise ChannelFormatError(f"{path}: input_alphabets must hold 1 or 2 alphabets")
    in_alphas = tuple(
        _built(f"input alphabet {k}: ", Alphabet, _numbers(a, f"input alphabet {k}"))
        for k, a in enumerate(raw_inputs)
    )
    out_alpha = _built("output_alphabet: ", Alphabet,
                       _numbers(doc["output_alphabet"], "output_alphabet"))

    n_rows = int(np.prod([len(a) for a in in_alphas]))
    n_out = len(out_alpha)
    raw_rows = doc["transition"]
    if not isinstance(raw_rows, list) or len(raw_rows) != n_rows:
        raise ChannelFormatError(
            f"{path}: transition must have {n_rows} rows, got "
            f"{len(raw_rows) if isinstance(raw_rows, list) else type(raw_rows).__name__}"
        )
    matrix = np.empty((n_rows, n_out))
    for r, row in enumerate(raw_rows):
        vals = _numbers(row, f"transition row {r}")
        if len(vals) != n_out:
            raise ChannelFormatError(
                f"{path}: transition row {r} has {len(vals)} entries, expected {n_out}"
            )
        matrix[r] = vals
    shape = tuple(len(a) for a in in_alphas) + (n_out,)
    channel = _built("", DmChannel, in_alphas, out_alpha, matrix.reshape(shape))

    raw_cost = doc["cost"]
    if raw_cost and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw_cost):
        raw_cost = [raw_cost]  # flat form, single-input channels only
    if not isinstance(raw_cost, list) or len(raw_cost) != len(in_alphas):
        raise ChannelFormatError(f"{path}: cost must hold one table per input alphabet")
    costs = []
    for k, table in enumerate(raw_cost):
        vals = _numbers(table, f"cost table {k}")
        if len(vals) != len(in_alphas[k]):
            raise ChannelFormatError(
                f"{path}: cost table {k} has {len(vals)} entries, expected {len(in_alphas[k])}"
            )
        costs.append(_built(f"cost table {k}: ", CostFn, vals))

    energy_vals = _numbers(doc["energy"], "energy")
    if len(energy_vals) != n_out:
        raise ChannelFormatError(
            f"{path}: energy has {len(energy_vals)} entries, expected {n_out}"
        )
    return channel, tuple(costs), _built("energy: ", EnergyFn, energy_vals)


def save_channel_file(path, ch: DmChannel, costs, energy: EnergyFn):
    """Write a channel back out in the file format accepted by load_channel_file."""
    rows = ch.transition.reshape(-1, len(ch.output_alphabet))
    doc = {
        "input_alphabets": [a.symbols.tolist() for a in ch.input_alphabets],
        "output_alphabet": ch.output_alphabet.symbols.tolist(),
        "transition": rows.tolist(),
        "cost": [c.values.tolist() for c in costs],
        "energy": energy.values.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
