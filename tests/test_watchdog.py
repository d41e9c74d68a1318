"""The suite's per-test watchdog, `watchdog` in conftest.py."""

import time
from pathlib import Path

import hirefair


def test_watchdog_fails_a_test_that_stalls(pytester, monkeypatch):
    """A test that sleeps past its budget fails, with every thread's stack
    dumped, instead of stalling the suite."""
    monkeypatch.setenv("PYTHONPATH", str(Path(hirefair.__file__).parents[1]))
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text(encoding="utf-8"))
    pytester.makepyfile(test_stall="""
        import time

        import pytest


        @pytest.fixture
        def watchdog_s():
            return 1.0


        def test_sleeps():
            time.sleep(60)
    """)
    started = time.monotonic()
    result = pytester.runpytest_subprocess(timeout=50)
    assert time.monotonic() - started < 30
    result.assert_outcomes(failed=1)
    output = "\n".join(result.outlines + result.errlines)
    assert "the test ran past its 1.0 s budget" in output
    assert "(most recent call first)" in output
    assert "in test_sleeps" in output
