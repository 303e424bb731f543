"""The mutation table stays applicable: a change that edits a mutated line
fails here, in tier-1, instead of showing up as ``stale`` only after the
full ``python tests/mutants.py`` run."""

from mutants import MUTANTS, ROOT


def test_every_mutant_old_text_occurs_exactly_once():
    stale = [
        (m.file, m.old)
        for m in MUTANTS
        if (ROOT / "src" / "attnquant" / m.file).read_text(encoding="utf-8").count(m.old) != 1
    ]
    assert stale == []
