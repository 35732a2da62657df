"""The seeded CLI fuzz of ``tests/cli_fuzz.py``: every one of its cases
ends in a documented exit code with at most one message line, and an
exit 0 writes only finite, non-negative bit counts."""

from cli_fuzz import check_case, fuzz_cases


def test_every_fuzzed_case_ends_in_a_documented_exit():
    failing = {}
    for k, case in enumerate(fuzz_cases(seed=1, count=400)):
        problems = check_case(case)
        if problems:
            failing[k] = (case.argv, case.config, problems)
    assert failing == {}
