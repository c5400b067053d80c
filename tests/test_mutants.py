"""The mutant catalogue in ``mutants.py`` still applies to the source."""

from mutants import MUTANTS, ROOT


def test_every_mutant_old_text_occurs_once_in_src():
    sources = {p: p.read_text(encoding="utf-8")
               for p in (ROOT / "src").rglob("*.py")}
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    for m in MUTANTS:
        path = ROOT / m.path
        assert path in sources, m.name
        assert sum(text.count(m.old) for text in sources.values()) == 1, m.name
        assert m.old in sources[path], m.name
        assert m.new != m.old, m.name
