"""The mutation gate's list stays in step with the library.

``mutants/run.py`` takes minutes and runs outside this suite, so a mutant
whose text has moved would show there only, as stale. This test loads the
list as it stands and checks, in a moment, that each mutant's old text
occurs exactly once in its file and that its test selection exists.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_gate():
    spec = importlib.util.spec_from_file_location("polycert_mutants", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once():
    mutants = load_gate().MUTANTS
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m.path).read_text().count(m.old) == 1, f"{m.name} is stale"
        for selection in m.tests:
            path, _, test = selection.partition("::")
            text = (ROOT / path).read_text()
            assert not test or f"def {test}(" in text, f"{m.name}: no {selection}"
