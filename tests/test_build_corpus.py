"""The corpus builder script reproduces the bundled corpus byte for byte."""

import importlib.util
from pathlib import Path

from agc.groupfile import group_to_file, serialize_group_file

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "build_corpus.py"


def test_build_all_reproduces_every_corpus_file(corpus_dir):
    spec = importlib.util.spec_from_file_location("build_corpus", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    groups = script.build_all()
    files = sorted(corpus_dir.glob("*.json"))
    assert sorted(groups) == [path.stem for path in files]
    assert len(files) == 37
    for path in files:
        text = serialize_group_file(group_to_file(groups[path.stem]))
        assert text == path.read_text(encoding="utf-8"), path.name
