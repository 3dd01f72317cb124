"""The edge instances of edge_instances.json, each run through `wcelab
verify` in-process against the verdict pinned for it.

An entry holds its `name`, a one-line `why`, the instance `doc`, the
`exit` code and one of two pins:
- `pin` for a document that parses: each record that does not pass, by
  record name or by check group for every record of the group, as
  [status, reason]. The reason of a breakdown or a skip is the report's;
  an empty reason is a FAIL on a residual past its bound. Every record
  not named passes. The JSON report and the text report must both hold
  exactly these verdicts.
- `error` for malformed input (exit 2): the text after `error: <path>: `.
No entry may raise a Python warning or write to stderr beyond its error
line. A pin that moves is a verdict that moved: known false FAILs are
pinned as FAIL until their fix flips them.
"""

import json
import warnings

import pytest

from wcelab.checks import RECORDS
from wcelab.cli import main

from conftest import EDGE_INSTANCES, edge_file


def expanded(pin):
    """The pin by record name: a group key stands for each of its records."""
    return {name: value for key, value in pin.items()
            for name in (RECORDS.get(key) or [key])}


@pytest.mark.parametrize("name", list(EDGE_INSTANCES))
def test_edge_instance(name, tmp_path, capfd):
    entry = EDGE_INSTANCES[name]
    path = edge_file(tmp_path, name)
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", str(path), "--report", str(report)])
    out, err = capfd.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code == entry["exit"]
    if code == 2:
        assert (out, err) == ("", f"error: {path}: {entry['error']}\n")
        return
    assert err == ""
    records = json.loads(report.read_text())["records"]
    assert sorted(r["name"] for r in records) == sorted(
        record for names in RECORDS.values() for record in names)
    # A breakdown or a skip has a reason and no residual, a pass or a FAIL
    # past its bound a residual and no reason.
    assert all((r["residual"] is None) == ("reason" in r) for r in records)
    pin = expanded(entry["pin"])
    assert {r["name"]: [r["status"], r.get("reason", "")] for r in records
            if r["status"] != "pass"} == pin
    # The text report prints the same verdicts, each reason in parentheses.
    *lines, summary = out.splitlines()
    assert summary.startswith(f"summary: {len(records)} checks")
    printed = {}
    for line in lines:
        status, _, record, rest = line.split(maxsplit=3)
        if status != "PASS":
            printed[record] = [status.lower(), rest[1:-1] if rest.startswith("(") else ""]
    assert printed == pin
