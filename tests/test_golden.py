"""The default and errata-off reports stay byte-identical to the stored ones.

The files under tests/golden/ are the output of
`python -m wh3 verify --all [--errata off] --format json --no-timings`.
A change that legitimately alters a report regenerates them with that command
and lists the changed text in CHANGES.md.
"""

from pathlib import Path

import pytest

from wh3.reports import reports_to_json

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fixture, name", [
    ("default_reports", "verify-default.json"),
    ("errata_off_reports", "verify-errata-off.json"),
])
def test_reports_match_golden_files(request, fixture, name):
    reports = request.getfixturevalue(fixture).values()
    text = reports_to_json(reports, with_timings=False) + "\n"
    assert text == (GOLDEN / name).read_text()
