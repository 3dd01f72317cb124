"""Verification-suite runner and report assembly.

A report is a flat list of check records sorted by instance digest and
check name, so it is independent of execution order. The machine-
readable rendering contains no timing and serializes numbers with full
precision; two runs over the same instances produce byte-identical
documents. Wall time goes to the human-readable rendering only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .checks import (
    CHECK_GROUPS,
    DEFAULT_TOL,
    FULL_GROUPS,
    RECORDS,
    CheckContext,
    CheckRecord,
)
from .instance_io import InstanceBundle


@dataclass
class VerificationReport:
    records: list[CheckRecord]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.records if r.status == "skip")

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_doc(self) -> dict:
        return {
            "records": [r.to_doc() for r in self.records],
            "summary": {
                "total": len(self.records),
                "passed": self.passed,
                "failed": self.failed,
                "skipped": self.skipped,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))

    def render_text(self, wall_time: float | None = None) -> str:
        lines = []
        for r in self.records:
            head = f"{r.status.upper():<4} {r.instance_digest[:8]} {r.name:<24}"
            if r.residual is None:
                lines.append(f"{head} ({r.reason})")
            else:
                rel = "<=" if r.bound == "upper" else ">"
                lines.append(
                    f"{head} residual={r.residual:.3e} {rel} {r.tol:.1e}"
                )
        lines.append(
            f"summary: {len(self.records)} checks, {self.passed} passed, "
            f"{self.failed} failed, {self.skipped} skipped"
            + (f", {wall_time:.2f} s" if wall_time is not None else "")
        )
        return "\n".join(lines)


def resolve_groups(checks: Iterable[str] | None) -> tuple[str, ...]:
    if checks is None:
        return FULL_GROUPS
    # A group named twice is run once.
    groups = tuple(dict.fromkeys(checks))
    unknown = [g for g in groups if g not in CHECK_GROUPS]
    if unknown:
        raise ValueError(
            f"unknown checks: {', '.join(unknown)}; "
            f"known: {', '.join(CHECK_GROUPS)}"
        )
    return groups


def run_suite(
    bundles: Sequence[InstanceBundle],
    checks: Iterable[str] | None = None,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Run the selected check groups over every instance.

    Failures are data, not exceptions; the exit status of the CLI is the
    only place they escalate. A group that raises on an instance (say, a
    numerical breakdown on overflowing entries) yields a failing record
    for each of its names on that instance, and the run goes on.
    """
    groups = resolve_groups(checks)
    records: list[CheckRecord] = []
    certified: set[str] = set()
    for bundle in bundles:
        ctx = CheckContext(bundle, tol)
        # An instance given twice is certified once: one record per
        # (digest, name).
        if ctx.digest in certified:
            continue
        certified.add(ctx.digest)
        for group in groups:
            try:
                records.extend(CHECK_GROUPS[group](ctx))
            except Exception as e:
                reason = f"{group} raised {type(e).__name__}: {e}"
                records.extend(ctx.breakdown(name, reason) for name in RECORDS[group])
    records.sort(key=lambda r: (r.instance_digest, r.name))
    return VerificationReport(records)
