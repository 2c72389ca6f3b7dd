"""Everything the package reads from outside the program enters here: the
number rules, the one ASCII-checked line reader (:func:`read_lines`) and the
one JSON parse (:func:`parse_json`), each refusal naming where it was read."""

from __future__ import annotations

import json
import math
import re

import numpy as np


def check_integer(value, what: str, low: int | None = None, high: int | None = None, *, each: bool = False):
    """Return ``value`` if it is an integer in ``[low, high)`` (None: no
    bound), or with ``each`` an array or nested lists of them; else raise
    ``ValueError`` naming ``what``.

    The one rule for integers from outside the program (dataset lines,
    checkpoint headers, priorities files, seeds): an ``int`` that is not a
    ``bool``, or a numpy integer, so JSON's ``true``, ``1.0`` and ``"1"`` are
    none.  A flag is an integer in ``[0, 2)``.  With ``each``, lists and
    tuples are walked to their leaves, and a numpy array passes by its dtype,
    an integer one or, for flags, ``bool``.
    """
    flag = (low, high) == (0, 2)
    if not each:
        if type(value) is bool or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{what} {value!r} is not {'0 or 1' if flag else 'an integer'}")
        if (low is not None and value < low) or (high is not None and value >= high):
            raise ValueError(f"{what} {value} outside {_interval(low, high)}")
        return value
    if isinstance(value, np.ndarray):
        leaves = value.reshape(-1) if value.dtype.kind in "iu" else ()
        ok = len(leaves) == value.size or (flag and value.dtype.kind == "b")
    else:
        leaves, types = _leaves(value)
        ok = all(t is not bool and issubclass(t, (int, np.integer)) for t in types)
    if ok and len(leaves) and (low is not None or high is not None):
        if (low is not None and np.min(leaves) < low) or (high is not None and np.max(leaves) >= high):
            if not flag:
                raise ValueError(f"{what} holds a value outside {_interval(low, high)}")
            ok = False
    if not ok:
        raise ValueError(f"{what} holds a value that is not {'0 or 1' if flag else 'an integer'}")
    return value


def check_number(value, what: str):
    """Return ``value``, an array or nested lists of finite numbers; else
    raise ``ValueError`` naming ``what``.

    The table form of :func:`read_number` for values JSON has already parsed
    (a dataset line's feature tables): lists and tuples are walked to their
    leaves, each an ``int`` or a ``float`` but never a ``bool``, and a numpy
    array passes by its dtype, an integer or a float one.
    """
    if isinstance(value, np.ndarray):
        leaves, ok = value, value.dtype.kind in "iuf"
    else:
        leaves, types = _leaves(value)
        ok = all(t is not bool and issubclass(t, (int, float, np.integer, np.floating)) for t in types)
    if not ok:
        raise ValueError(f"{what} holds a value that is not a number")
    try:
        ok = np.isfinite(np.asarray(leaves, dtype=np.float64)).all()
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        raise ValueError(f"{what} holds a value that is not finite")
    return value


# JSON's number grammar in ASCII digits: a leading minus is the only sign, and
# ``+3``, ``1_0``, ``007``, ``.5``, ``5.``, ``nan`` and ``inf`` do not match.
_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def read_number(token: str, what: str, kind: type = float):
    """The ``kind`` (``float`` or ``int``) that ``token`` spells; else raise
    ``ValueError`` naming ``what`` and the token.

    The one rule for numbers written as text outside the program (instance
    files, results.csv, command-line options, priorities keys): the token
    matches JSON's number grammar and ``float()`` or ``int()`` converts it,
    never ``json.loads``, which reads ``-0`` as the int 0 and ``1e309`` as
    inf.  A float must be finite.  An int is written with no fraction and no
    exponent, so it is an integer by :func:`check_integer`'s rule; its range
    is the caller's to check.
    """
    if _NUMBER.fullmatch(token):
        if kind is float:
            value = float(token)
            if math.isfinite(value):
                return value
            raise ValueError(f"non-finite {what} {token!r}")
        if token.lstrip("-").isdigit():
            return int(token)
    raise ValueError(f"non-{'integer' if kind is int else 'numeric'} {what} {token!r}")


def check_ascii(text: str, where: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming ``where`` and the byte if ``text`` holds a byte past 0x7f.

    Every file the package reads is ASCII.  :func:`read_lines` opens it with
    ``errors="surrogateescape"``, which decodes each such byte to a lone
    surrogate instead of failing in the codec, whose message names neither
    the file nor the line.
    """
    if not text.isascii():
        byte = next(ord(c) - 0xDC00 for c in text if not c.isascii())
        raise error(f"{where}: non-ASCII byte {byte:#04x}")


def read_lines(path, error: type[ValueError] = ValueError, *, named: bool = True):
    """Yield the lines of the text file at ``path``, endings untranslated (as
    ``csv`` needs them); a byte past 0x7f raises ``error`` naming its line,
    after ``path`` if ``named``."""
    with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            check_ascii(line, f"{path}: line {lineno}" if named else f"line {lineno}", error)
            yield line


def parse_json(text: str | bytes, where: str, error: type[ValueError] = ValueError):
    """The value the JSON ``text`` (bytes read as ASCII) holds; every decode
    failure, nesting past the recursion limit included, raises ``error``
    naming ``where``."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="surrogateescape")
        check_ascii(text, where, error)
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise error(f"{where}: not JSON ({exc})") from None


def _leaves(value) -> tuple[list, set]:
    """The leaves of ``value`` with lists and tuples walked, and their types."""
    leaves, types = [value], {type(value)}
    while types & {list, tuple}:
        leaves = [y for x in leaves for y in (x if type(x) in (list, tuple) else (x,))]
        types = set(map(type, leaves))
    return leaves, types


def _interval(low, high) -> str:
    return f"[{'-inf' if low is None else low}, {'inf' if high is None else high})"
