"""Structured verification reports with a stable JSON form."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .scalars import ScalarError

__all__ = ["Detail", "Report", "timed_report", "reports_to_json"]


@dataclass
class Detail:
    """One sub-verdict of a check."""

    id: str
    ok: bool
    note: str = ""
    modular: bool = False

    def to_dict(self) -> dict:
        out = {"id": self.id, "ok": self.ok}
        if self.note:
            out["note"] = self.note
        if self.modular:
            out["modular"] = True
        return out


@dataclass
class Report:
    """Outcome of one verification check."""

    check: str
    status: str = "pass"  # pass | fail | pass-modular
    mode: str = "exact"  # exact | modular | mixed
    details: list[Detail] = field(default_factory=list)
    counterexample: str | None = None
    millis: int = 0
    prime: int | None = None
    seed: int | None = None

    def add(self, detail_id: str, ok: bool, note: str = "", modular: bool = False,
            counterexample: str | None = None) -> Detail:
        detail = Detail(detail_id, ok, note, modular)
        self.details.append(detail)
        if not ok and self.counterexample is None and counterexample is not None:
            self.counterexample = counterexample
        return detail

    def finalize(self) -> "Report":
        ok = all(d.ok for d in self.details)
        any_modular = any(d.modular for d in self.details)
        self.status = "pass" if ok and not any_modular else ("pass-modular" if ok else "fail")
        self.mode = "mixed" if any_modular and not all(d.modular for d in self.details) else (
            "modular" if any_modular else "exact"
        )
        return self

    @property
    def passed(self) -> bool:
        return self.status in ("pass", "pass-modular")

    def to_dict(self, with_timings: bool = True) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "mode": self.mode,
            "prime": self.prime,
            "seed": self.seed,
            "details": [d.to_dict() for d in self.details],
            "counterexample": self.counterexample,
            "millis": self.millis if with_timings else 0,
        }


@contextmanager
def timed_report(check: str):
    """Create a Report, time its construction and finalize the status.

    A ScalarError inside the block ends the check with one failing detail
    whose note starts "undecided:"; the details added before it are kept.
    """
    report = Report(check)
    start = time.perf_counter()
    try:
        yield report
    except ScalarError as err:
        report.add("scalar-error", False, note=f"undecided: {err}")
    finally:
        report.millis = int((time.perf_counter() - start) * 1000)
        report.finalize()


def reports_to_json(reports, with_timings: bool = True) -> str:
    docs = [r.to_dict(with_timings) for r in sorted(reports, key=lambda r: r.check)]
    return json.dumps({"reports": docs}, indent=2, sort_keys=False)
