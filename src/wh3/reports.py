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

    def to_dict(self) -> dict:
        out = {"id": self.id, "ok": self.ok}
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class Report:
    """Outcome of one verification check; every verdict is exact."""

    check: str
    status: str = "pass"  # pass | fail
    details: list[Detail] = field(default_factory=list)
    counterexample: str | None = None
    millis: int = 0

    def add(self, detail_id: str, ok: bool, note: str = "",
            counterexample: str | None = None) -> Detail:
        detail = Detail(detail_id, ok, note)
        self.details.append(detail)
        if not ok and self.counterexample is None and counterexample is not None:
            self.counterexample = counterexample
        return detail

    def finalize(self) -> "Report":
        self.status = "pass" if all(d.ok for d in self.details) else "fail"
        return self

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "details": [d.to_dict() for d in self.details],
            "counterexample": self.counterexample,
            "millis": self.millis,
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


def reports_to_json(reports) -> str:
    docs = [r.to_dict() for r in sorted(reports, key=lambda r: r.check)]
    return json.dumps({"reports": docs}, indent=2, sort_keys=False)
