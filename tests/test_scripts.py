"""The mutant catalogue, `scripts/mutants.py`, checked against the code
without running any mutant, since its run takes minutes."""

import importlib.util
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]


def test_mutant_catalogue_matches_the_code():
    # each old text occurs exactly once, so a change that rewrites mutated
    # code must update the catalogue, and each named test exists
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for test in m.tests:
            path, *_, name = test.split("::")
            assert f"def {name}(" in (ROOT / path).read_text(), test
