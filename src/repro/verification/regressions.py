"""Regression-case persistence: shrunk failures as checked-in files.

Every shrunk fuzzer failure can be written out as a small JSON document
(:func:`save_case` / :func:`load_case`) that pins the workload seed, the
strategy/policy pair, the oracle expected to fire, and the minimal
schedule.  ``tests/regressions/`` holds these files; its loader replays
every one on each test run and asserts the expectation recorded in the
file — ``violation:<oracle>`` for planted faults the oracles must keep
catching, ``clean`` for schedules that must stay violation-free.

:func:`render_pytest` additionally renders a case as a self-contained
pytest function, ready to paste into a test module when a regression
deserves a named, documented test of its own.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .cases import ReplayCase, replay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..admission.stress import OverloadRegression
    from ..distributed.scenarios import DistributedRegression

FORMAT_VERSION = 1

#: Case kinds this loader understands.  ``replay`` (the default when the
#: field is absent) is a shrunk scripted-schedule case; ``overload`` pins
#: an admission-control comparison (see
#: :class:`repro.admission.stress.OverloadRegression`); ``distributed``
#: pins a named partition/heal chaos scenario's verdict and fingerprint
#: (see :class:`repro.distributed.scenarios.DistributedRegression`).
CASE_KINDS = ("replay", "overload", "distributed")

#: Expectation values: the oracle that must fire, or no violation at all.
EXPECT_CLEAN = "clean"


def expectation_for(case: ReplayCase) -> str:
    """The expectation string recorded for *case*."""
    if case.oracle is None:
        return EXPECT_CLEAN
    return f"violation:{case.oracle}"


def save_case(case: ReplayCase, path: str | Path) -> Path:
    """Write *case* as a regression JSON file; returns the path."""
    path = Path(path)
    document = {
        "format": FORMAT_VERSION,
        "expect": expectation_for(case),
        **case.to_dict(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_case(
    path: str | Path,
) -> tuple["ReplayCase | OverloadRegression | DistributedRegression", str]:
    """Read a regression file; returns ``(case, expectation)``.

    The optional ``"kind"`` field dispatches to non-replay case types;
    ``"overload"`` cases are loaded through :mod:`repro.admission.stress`
    (imported lazily — that package imports this one's sibling modules).
    """
    document = json.loads(Path(path).read_text())
    version = document.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported regression format {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    expect = document.get("expect", EXPECT_CLEAN)
    kind = document.get("kind", "replay")
    if kind == "overload":
        from ..admission.stress import load_overload_case

        return load_overload_case(str(path), document), expect
    if kind == "distributed":
        from ..distributed.scenarios import load_distributed_case

        return load_distributed_case(str(path), document), expect
    if kind != "replay":
        raise ValueError(
            f"{path}: unknown case kind {kind!r} (expected one of "
            f"{CASE_KINDS})"
        )
    return ReplayCase.from_dict(document), expect


def check_case(
    case: "ReplayCase | OverloadRegression | DistributedRegression", expect: str
) -> None:
    """Replay *case* and assert the recorded expectation.

    Raises ``AssertionError`` with a triage-friendly message when the
    replayed behaviour diverges from the expectation.
    """
    if not isinstance(case, ReplayCase):
        # Non-replay kinds carry their own checker returning an
        # expectation string ("clean" or "violation:<what> <detail>").
        verdict = case.check()
        assert verdict == expect, (
            f"regression case diverged: expected {expect!r}, "
            f"got {verdict!r}"
        )
        return
    outcome = replay(case)
    if expect == EXPECT_CLEAN:
        assert outcome.violation is None, (
            f"regression case expected a clean replay but oracle fired: "
            f"{outcome.violation}"
        )
        return
    _prefix, _sep, oracle = expect.partition(":")
    assert outcome.violation is not None, (
        f"regression case expected oracle {oracle!r} to fire but the "
        f"replay was clean — the planted fault is no longer detected"
    )
    assert outcome.violation.oracle == oracle, (
        f"regression case expected oracle {oracle!r} but "
        f"{outcome.violation.oracle!r} fired: {outcome.violation}"
    )


def run_directory(directory: str | Path) -> list[tuple[Path, str]]:
    """Replay every ``*.json`` case under *directory*.

    Returns the ``(path, expectation)`` pairs that were checked; raises
    on the first divergence.
    """
    checked: list[tuple[Path, str]] = []
    for path in sorted(Path(directory).glob("*.json")):
        case, expect = load_case(path)
        check_case(case, expect)
        checked.append((path, expect))
    return checked


def render_pytest(case: ReplayCase, name: str = "test_regression") -> str:
    """A self-contained pytest function replaying *case*.

    The emitted code depends only on the public verification API, so it
    can be pasted into any module under ``tests/``.
    """
    expect = expectation_for(case)
    body = json.dumps(
        {"format": FORMAT_VERSION, "expect": expect, **case.to_dict()},
        indent=4,
        sort_keys=True,
    )
    lines = [
        f"def {name}():",
        f'    """Shrunk fuzzer failure ({expect}); see',
        "    repro.verification for the oracle definitions.\"\"\"",
        "    import json",
        "",
        "    from repro.verification.cases import ReplayCase",
        "    from repro.verification.regressions import check_case",
        "",
        f"    document = json.loads('''{body}''')",
        '    check_case(ReplayCase.from_dict(document), document["expect"])',
    ]
    return "\n".join(lines) + "\n"
