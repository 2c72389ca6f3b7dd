"""Mixed-binary MILP data model, validation, LP relaxation, and text file I/O.

Every other module consumes :class:`MilpInstance` values.  The canonical
objective sense is minimization; generators that model maximization problems
negate their objective at build time.  An instance's fields are immutable.
Its :attr:`MilpInstance.lp` is per-process solver state, built on first use,
so parallel jobs pass instance paths, not instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import inputs

INF = float("inf")

LE = "LE"
GE = "GE"
EQ = "EQ"
SENSES = (LE, GE, EQ)

FILE_MAGIC = "bdmilp"
FILE_VERSION = 1
FILE_EXTENSION = ".bdmilp"


class BdmilpFormatError(ValueError):
    """Raised when an instance file cannot be parsed."""


def _fmt(x: float) -> str:
    """Decimal text with 17 significant digits (exact float64 roundtrip)."""
    return format(float(x), ".17g")


def fractionality(x) -> np.ndarray:
    """min(x - floor(x), ceil(x) - x); zero at integers, 0.5 at worst."""
    x = np.asarray(x, dtype=float)
    return np.minimum(x - np.floor(x), np.ceil(x) - x)


@dataclass(frozen=True)
class InstanceArrays:
    """An instance as read-only arrays; nonzero ``k`` is ``coef[k]`` at ``(row[k],
    col[k])``, row-major with ascending columns, explicit zeros kept."""

    row: np.ndarray  # (nnz,) int64
    col: np.ndarray  # (nnz,) int64
    coef: np.ndarray  # (nnz,) float
    objective: np.ndarray  # (n,)
    lower: np.ndarray  # (n,)
    upper: np.ndarray  # (n,)
    rhs: np.ndarray  # (m,)
    senses: np.ndarray  # (m,) str
    binaries: np.ndarray  # the binary set, ascending, int64


@dataclass(frozen=True)
class MilpInstance:
    """One mixed-binary minimization problem.

    ``rows[r]`` is a tuple of ``(column, coefficient)`` pairs sorted by column
    (as :func:`make_instance` and :func:`read_instance` give them), forming
    the r-th constraint row; ``senses[r]`` relates the row to ``rhs[r]``.
    ``binary_set`` indexes the binary variables; all other variables are
    continuous within their bounds (``upper`` may be ``inf``).  Validation
    walks these tuples before the solver and the features read :attr:`arrays`.
    """

    name: str
    num_vars: int
    objective: tuple[float, ...]
    rows: tuple[tuple[tuple[int, float], ...], ...]
    rhs: tuple[float, ...]
    senses: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    binary_set: frozenset[int] = field(default_factory=frozenset)

    @property
    def num_cons(self) -> int:
        return len(self.rows)

    def objective_value(self, x) -> float:
        return float(np.dot(self.arrays.objective, np.asarray(x, dtype=float)))

    @cached_property
    def arrays(self) -> InstanceArrays:
        """The instance as read-only arrays, built on first use."""
        pairs = [pair for row in self.rows for pair in row]
        view = InstanceArrays(
            row=np.repeat(np.arange(len(self.rows), dtype=np.int64), [len(row) for row in self.rows]),
            col=np.array([j for j, _ in pairs], dtype=np.int64),
            coef=np.array([a for _, a in pairs], dtype=float),
            objective=np.array(self.objective, dtype=float),
            lower=np.array(self.lower, dtype=float),
            upper=np.array(self.upper, dtype=float),
            rhs=np.array(self.rhs, dtype=float),
            senses=np.array(self.senses, dtype=str),
            binaries=np.array(sorted(self.binary_set), dtype=np.int64),
        )
        for a in vars(view).values():
            a.setflags(write=False)
        return view

    @cached_property
    def lp(self):
        """The workspace of this instance's LP relaxation, built on first use.

        Every solve of one instance object shares its memo, kept inverses and
        counters; a copy (``dataclasses.replace``) gets a workspace of its own.
        """
        from .simplex import LpWorkspace

        return LpWorkspace(lp_relaxation(self))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def make_instance(name, objective, rows, rhs, senses, lower, upper, binary_set) -> MilpInstance:
    """Normalize python containers into a canonical, hashable instance."""
    objective = tuple(float(c) for c in objective)
    rows = tuple(tuple(sorted((int(j), float(a)) for j, a in row)) for row in rows)
    return MilpInstance(
        name=str(name),
        num_vars=len(objective),
        objective=objective,
        rows=rows,
        rhs=tuple(float(b) for b in rhs),
        senses=tuple(str(s) for s in senses),
        lower=tuple(float(l) for l in lower),
        upper=tuple(float(u) for u in upper),
        binary_set=frozenset(int(i) for i in binary_set),
    )


def validate_instance(inst: MilpInstance) -> ValidationReport:
    """Check every invariant: the list that :func:`lp_relaxation` enforces, then
    a nonempty binary set; violations name the offending row/column."""
    bad = _violations(inst)
    if not inst.binary_set:
        bad.append("binary set is empty")
    return ValidationReport(ok=not bad, violations=tuple(bad))


def _violations(inst: MilpInstance) -> list[str]:
    """What stops a solve: sizes, indices, finiteness, senses, bounds, and a binary
    outside ``[0, n)`` or not bounded ``[0, 1]`` (branching could not settle it)."""
    bad: list[str] = []
    n = inst.num_vars
    if n < 1:
        bad.append("instance has no variables")
    if len(inst.objective) != n:
        bad.append(f"objective length {len(inst.objective)} != num_vars {n}")
    if not (len(inst.rows) == len(inst.rhs) == len(inst.senses)):
        bad.append(
            f"row/rhs/sense count mismatch: {len(inst.rows)}/{len(inst.rhs)}/{len(inst.senses)}"
        )
    if len(inst.lower) != n or len(inst.upper) != n:
        bad.append("bounds length != num_vars")
    for j, c in enumerate(inst.objective):
        if not math.isfinite(c):
            bad.append(f"column {j}: non-finite objective coefficient")
    for r, row in enumerate(inst.rows):
        seen = set()
        for j, a in row:
            if not 0 <= j < n:
                bad.append(f"row {r}: column {j} out of range")
            if j in seen:
                bad.append(f"row {r}: duplicate column {j}")
            seen.add(j)
            if not math.isfinite(a):
                bad.append(f"row {r}: non-finite coefficient at column {j}")
    for r, s in enumerate(inst.senses):
        if s not in SENSES:
            bad.append(f"row {r}: unknown sense {s!r}")
    for r, b in enumerate(inst.rhs):
        if not math.isfinite(b):
            bad.append(f"row {r}: non-finite rhs")
    for j in range(bounded := min(n, len(inst.lower), len(inst.upper))):
        lo, up = inst.lower[j], inst.upper[j]
        if not math.isfinite(lo):
            bad.append(f"column {j}: lower bound must be finite")
        if math.isnan(up):
            bad.append(f"column {j}: upper bound is NaN")
        if lo > up:
            bad.append(f"column {j}: lower bound {lo} above upper bound {up}")
    for j in sorted(inst.binary_set):
        if not 0 <= j < n:
            bad.append(f"binary index {j} out of range")
        elif j < bounded and (inst.lower[j] != 0.0 or inst.upper[j] != 1.0):
            bad.append(f"binary bound: column {j} has bounds [{inst.lower[j]}, {inst.upper[j]}]")
    return bad


def lp_relaxation(inst: MilpInstance) -> MilpInstance:
    """Drop integrality: ``inst`` itself, since the LP layer ignores ``binary_set``.

    Raises ``ValueError`` naming every entry of :func:`_violations`, the one list
    of what can be solved; an empty binary set passes, so all-continuous copies
    relax to themselves.
    """
    bad = _violations(inst)
    if bad:
        raise ValueError("invalid instance: " + "; ".join(bad))
    return inst


def write_instance(inst: MilpInstance, path) -> None:
    """Serialize to the line-oriented ``.bdmilp`` text format.

    Layout: magic+version line, name, counts ``n m |I|``, objective line,
    ``m`` row lines (``row <nnz> <col> <coef> ...``), senses line, rhs line,
    lower-bounds line, upper-bounds line (``inf`` token allowed), binary
    index line.  Coefficients use 17 significant digits so the roundtrip is
    bit exact.
    """
    lines = [f"{FILE_MAGIC} {FILE_VERSION}", inst.name]
    lines.append(f"{inst.num_vars} {inst.num_cons} {len(inst.binary_set)}")
    lines.append(" ".join(_fmt(c) for c in inst.objective))
    for row in inst.rows:
        parts = [f"row {len(row)}"]
        parts.extend(f"{j} {_fmt(a)}" for j, a in row)
        lines.append(" ".join(parts))
    lines.append(" ".join(inst.senses) if inst.senses else "")
    lines.append(" ".join(_fmt(b) for b in inst.rhs) if inst.rhs else "")
    lines.append(" ".join(_fmt(l) for l in inst.lower))
    lines.append(" ".join("inf" if u == INF else _fmt(u) for u in inst.upper))
    lines.append(" ".join(str(i) for i in sorted(inst.binary_set)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_instance(path) -> MilpInstance:
    """Parse a ``.bdmilp`` file; errors name the offending line.

    Every number is read by :func:`inputs.read_number`, and ``inf`` only as
    an upper bound, where :func:`write_instance` writes it.  The result goes
    through :func:`make_instance`, so its rows are sorted by column.
    """
    raw = "".join(inputs.read_lines(path, BdmilpFormatError, named=False)).splitlines()

    def floats(lineno: int, what: str, tokens: list[str], upper: bool = False) -> list[float]:
        try:
            return [INF if upper and t == "inf" else inputs.read_number(t, what) for t in tokens]
        except ValueError as exc:
            raise BdmilpFormatError(f"line {lineno}: {exc}") from None

    header = raw[0].split() if raw else []
    if not header or header[0] != FILE_MAGIC:
        raise BdmilpFormatError("line 1: missing header")
    if len(header) != 2 or header[1] != str(FILE_VERSION):
        raise BdmilpFormatError(f"line 1: unsupported format version in header {raw[0]!r}")
    if len(raw) < 3:
        raise BdmilpFormatError(f"truncated file: expected at least 3 lines, found {len(raw)}")
    name = raw[1]
    try:
        n, m, nbin = (inputs.read_number(t, "count", int) for t in raw[2].split())
    except ValueError:
        raise BdmilpFormatError("line 3: malformed size line") from None
    if min(n, m, nbin) < 0:
        raise BdmilpFormatError(f"line 3: negative count in size line {raw[2]!r}")
    need = 3 + 1 + m + 5
    if len(raw) < need:
        raise BdmilpFormatError(f"truncated file: expected {need} lines, found {len(raw)}")
    objective = floats(4, "objective coefficient", raw[3].split())
    if len(objective) != n:
        raise BdmilpFormatError(f"line 4: expected {n} objective coefficients")
    rows = []
    for r in range(m):
        lineno = 5 + r
        parts = raw[4 + r].split()
        if not parts or parts[0] != "row":
            raise BdmilpFormatError(f"line {lineno}: expected row line")
        try:
            nnz = inputs.read_number(parts[1], "row count", int)
        except (IndexError, ValueError):
            raise BdmilpFormatError(f"line {lineno}: malformed row count") from None
        if len(parts) != 2 + 2 * nnz:
            raise BdmilpFormatError(f"line {lineno}: row token count mismatch")
        try:
            cols = [inputs.read_number(t, "column index", int) for t in parts[2::2]]
        except ValueError:
            raise BdmilpFormatError(f"line {lineno}: bad column index") from None
        rows.append(zip(cols, floats(lineno, "coefficient", parts[3::2])))
    base = 4 + m
    senses = raw[base].split()
    for s in senses:
        if s not in SENSES:
            raise BdmilpFormatError(f"line {base + 1}: unknown sense token {s!r}")
    if len(senses) != m:
        raise BdmilpFormatError(f"line {base + 1}: expected {m} sense tokens")
    rhs = floats(base + 2, "rhs", raw[base + 1].split())
    if len(rhs) != m:
        raise BdmilpFormatError(f"line {base + 2}: expected {m} rhs values")
    lower = floats(base + 3, "lower bound", raw[base + 2].split())
    upper = floats(base + 4, "upper bound", raw[base + 3].split(), upper=True)
    if len(lower) != n:
        raise BdmilpFormatError(f"line {base + 3}: expected {n} lower bounds")
    if len(upper) != n:
        raise BdmilpFormatError(f"line {base + 4}: expected {n} upper bounds")
    btoks = raw[base + 4].split()
    if len(btoks) != nbin:
        raise BdmilpFormatError(f"line {base + 5}: expected {nbin} binary indices")
    try:
        binary = [inputs.read_number(t, "binary index", int) for t in btoks]
    except ValueError:
        raise BdmilpFormatError(f"line {base + 5}: bad binary index") from None
    seen = set()
    for j in binary:
        if not 0 <= j < n:
            raise BdmilpFormatError(f"line {base + 5}: binary index {j} outside [0, {n})")
        if j in seen:
            raise BdmilpFormatError(f"line {base + 5}: repeated binary index {j}")
        seen.add(j)
    return make_instance(name, objective, rows, rhs, senses, lower, upper, binary)
