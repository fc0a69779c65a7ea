"""Check reports: one record per verified identity instance.

A report stores the two sides of an identity as rendered strings plus a
discrepancy: the string "0" for a bit-exact match, otherwise the maximal
relative error.  Exact-backend comparisons pass only on identical values;
float comparisons pass within the caller's tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algebra.field import format_scalar, rel_err


def _render(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    try:
        return format_scalar(value)
    except TypeError:
        return repr(value)  # polynomials and other structured values


@dataclass
class CheckReport:
    check_id: str
    params: dict
    status: str            # pass | fail | skipped
    lhs: str
    rhs: str
    discrepancy: str       # "0" when exactly equal, else max relative error
    elapsed_ms: int = 0

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
                    disc = _render(lhs - rhs)
                except TypeError:
                    disc = "mismatch"
        else:
            err = rel_err(lhs, rhs)
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
        return CheckReport(
            check_id=check_id,
            params={k: _render(v) for k, v in params.items()},
            status="fail",
            lhs="error",
            rhs="error",
            discrepancy=f"{type(exc).__name__}: {exc}",
        )

    def to_json_obj(self) -> dict:
        """The report record without its timing, so that the same
        configuration and seed give a byte-identical report."""
        return {
            "check_id": self.check_id,
            "params": self.params,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "discrepancy": self.discrepancy,
        }
