"""Check reports: one record per verified identity instance.

``from_comparison`` is the one path from the two sides of an identity to a
report; in the package, ``_Runner.check`` in ``cli`` is its only caller.
A report stores both sides as rendered strings plus a discrepancy.  Exact
comparisons pass only on identical values, and the discrepancy is the
string "0" or the difference lhs - rhs.  Float comparisons pass within the
runner's tolerance, and the discrepancy is the largest relative error.

A side may be a scalar, a polynomial or a tuple of them.  Tuples compare
element by element, and in float mode the largest element error counts.
Float polynomials compare by their largest relative coefficient error.

``from_error`` reports a check whose sides raised.  Its status is
``guarded`` for an ``IcelabError`` (a pole, degenerate weights or another
condition that icelab guards against) and ``error`` for any other
exception, an internal bug.  A comparison that comes out false is
``fail``.  An ``error`` report also keeps the frame that raised, as
``origin``; like ``elapsed_ms`` it stays out of the JSON record.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import Mapping

from .algebra.field import format_scalar, rel_err
from .algebra.poly import Poly, poly_max_rel_err
from .errors import IcelabError

STATUSES = ("pass", "fail", "guarded", "error")   # the summary's column order


def _difference(lhs, rhs):
    if isinstance(lhs, tuple):
        return tuple(_difference(l, r) for l, r in zip(lhs, rhs))
    return lhs - rhs


def _float_err(lhs, rhs) -> float:
    if isinstance(lhs, tuple):
        return max((_float_err(l, r) for l, r in zip(lhs, rhs, strict=True)),
                   default=0.0)
    if isinstance(lhs, Poly):
        return poly_max_rel_err(lhs, rhs)
    return rel_err(lhs, rhs)


def _render(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    try:
        return format_scalar(value)
    except TypeError:
        return repr(value)  # polynomials and other structured values


def _origin(exc: Exception) -> str:
    """Where ``exc`` was raised: "file:line in function" of its innermost frame."""
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return ""
    last = frames[-1]
    return f"{os.path.basename(last.filename)}:{last.lineno} in {last.name}"


@dataclass
class CheckReport:
    check_id: str
    params: dict
    status: str            # one of STATUSES
    lhs: str
    rhs: str
    discrepancy: str       # "0" when exactly equal, else max relative error
    elapsed_ms: float = 0.0
    origin: str = ""       # for an ``error``: "file:line in function" that raised

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @staticmethod
    def from_comparison(check_id: str, params: Mapping, lhs, rhs, *,
                        exact: bool, tolerance: float = 0.0) -> "CheckReport":
        if exact:
            ok = lhs == rhs
            if ok:
                disc = "0"
            else:
                try:
                    disc = _render(_difference(lhs, rhs))
                except TypeError:
                    disc = "mismatch"
        else:
            err = _float_err(lhs, rhs)
            ok = err <= tolerance
            disc = "0" if err == 0 else format_scalar(err, 3)
        return CheckReport(
            check_id=check_id,
            params={k: _render(v) for k, v in params.items()},
            status="pass" if ok else "fail",
            lhs=_render(lhs),
            rhs=_render(rhs),
            discrepancy=disc,
        )

    @staticmethod
    def from_error(check_id: str, params: Mapping, exc: Exception) -> "CheckReport":
        """A check that raised: ``guarded`` for a condition that icelab
        guards against (an ``IcelabError``), ``error`` for any other; an
        ``error`` keeps the innermost frame of its traceback."""
        guarded = isinstance(exc, IcelabError)
        return CheckReport(
            check_id=check_id,
            params={k: _render(v) for k, v in params.items()},
            status="guarded" if guarded else "error",
            lhs="error",
            rhs="error",
            discrepancy=f"{type(exc).__name__}: {exc}",
            origin="" if guarded else _origin(exc),
        )

    def to_json_obj(self) -> dict:
        """The report record without its timing or origin, so that the
        same configuration and seed give a byte-identical report."""
        return {
            "check_id": self.check_id,
            "params": self.params,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "discrepancy": self.discrepancy,
        }
