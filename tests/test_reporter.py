"""The acceptance gate's criterion lines report failures as FAIL."""

from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_failing_criterion_prints_fail(pytester):
    pytester.makeconftest(CONFTEST.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_gate="""
        class TestAcceptance:
            def test_criterion_3(self, report):
                assert 1 == 2

            def test_criterion_4(self, report):
                assert 1 == 1
        """
    )
    result = pytester.runpytest_subprocess("-s", "-p", "no:cacheprovider")
    result.assert_outcomes(passed=1, failed=1)
    result.stdout.fnmatch_lines(["*criterion 3: FAIL*", "*criterion 4: PASS*"])
    result.stdout.no_fnmatch_line("*criterion 3: PASS*")
