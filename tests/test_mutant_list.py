"""The mutant gate's list is current: each mutant's text is in its file once and its tests exist.

``python tests/mutants.py`` refuses a stale mutant only when it reaches it,
minutes into the run; this check finds one at once.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_names_existing_tests(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new
    for test_file in mutant.tests:
        assert (ROOT / test_file).is_file()
