"""Every row of the committed mutant list still names one place in the source.

A refactor that moves or rewrites a mutated line fails here, rather than
leaving a mutant that ``tests/run_mutants.py`` can no longer apply.
"""
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path,old_text,new_text,why", MUTANTS, ids=[m[3] for m in MUTANTS])
def test_each_mutant_replaces_exactly_one_occurrence(path, old_text, new_text, why):
    assert old_text != new_text
    assert (ROOT / path).read_text().count(old_text) == 1
