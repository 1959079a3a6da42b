"""Acceptance gate: every criterion runs at its pinned tolerance and
prints one pass/fail line.  A criterion that exceeds a configured cap
reports SKIP (surfaced as a pytest skip, not a failure)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chtoucakit import acceptance


@pytest.mark.parametrize(
    "number,title,fn",
    acceptance.CRITERIA,
    ids=[f"criterion_{n:02d}_{t.replace(' ', '_')}" for n, t, _ in acceptance.CRITERIA],
)
def test_criterion(number, title, fn, capsys):
    try:
        detail = fn()
    except acceptance.TooLarge as e:
        with capsys.disabled():
            print(f"SKIP criterion {number:2d}: {title} -- {e}")
        pytest.skip(str(e))
    with capsys.disabled():
        print(f"PASS criterion {number:2d}: {title} -- {detail}")


def test_selftest_runner_reports_all():
    results = list(acceptance.run_all(wanted={1, 13}))
    assert [r[0] for r in results] == [1, 13]
    assert all(status == "PASS" for _, status, _, _ in results)


def test_runner_writes_nothing(capsys):
    """The CLI prints the selftest lines; the runner only yields them."""
    results = list(acceptance.run_all({1}))
    assert [r[:2] for r in results] == [(1, "PASS")]
    assert capsys.readouterr() == ("", "")


def test_selftest_skip_semantics(monkeypatch):
    """Lowering a cap surfaces SKIP, not failure."""
    import chtoucakit.pavings as pavings_mod

    monkeypatch.setattr(pavings_mod, "ENUMERATION_POINT_CAP", 2)
    results = list(acceptance.run_all(wanted={2}))
    assert results[0][1] == "SKIP"


def broken_split(p, d, cuts):
    """split_truncation with the first degree part off by one."""
    from chtoucakit.hn_truncation import split_truncation

    res = split_truncation(p, d, cuts)
    if res.d_parts:
        parts = (res.d_parts[0] + 1,) + res.d_parts[1:]
        return type(res)(parts, res.p_parts)
    return res


def test_selftest_detects_injected_fault(monkeypatch):
    """A corrupted splitting formula fails the degree-identity criterion."""
    monkeypatch.setattr(acceptance, "split_truncation", broken_split)
    results = list(acceptance.run_all(wanted={10}))
    assert results[0][1] == "FAIL"


def test_selftest_detects_injected_fault_under_python_O():
    """`python -O` strips assert statements; the criteria's checks stay."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "from chtoucakit import acceptance\n"
        "from test_acceptance import broken_split\n"
        "acceptance.split_truncation = broken_split\n"
        "print(list(acceptance.run_all(wanted={10}))[0][1])\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["FAIL"]


def test_selftest_command_prints_a_line_per_criterion_and_exits_1_on_failure(monkeypatch, capsys):
    from chtoucakit import cli

    monkeypatch.setattr(acceptance, "split_truncation", broken_split)
    assert cli.main(["selftest", "--criteria", "1,10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines] == ["PASS criterion  1", "FAIL criterion 10"]
    assert "): truncation splitting identities -- " in lines[1]
