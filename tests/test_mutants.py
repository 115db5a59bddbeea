"""The mutant list in tests/mutants.py cannot rot silently: each entry still
applies to exactly one place in its module, changes it, and names killing
tests that exist. Running the mutants is ``python tests/mutants.py``."""

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_applies_once_and_names_existing_tests():
    assert MUTANTS
    for mutant in MUTANTS:
        text = (ROOT / "src" / "bottlenet" / mutant.module).read_text()
        assert text.count(mutant.old) == 1, mutant.why
        assert mutant.new != mutant.old, mutant.why
        assert mutant.killed_by, mutant.why
        for test_id in mutant.killed_by:
            path, *names = test_id.split("::")
            source = (ROOT / path).read_text()
            for name in names:
                assert re.search(rf"^ *(class|def) {name}\b", source, re.MULTILINE), test_id
