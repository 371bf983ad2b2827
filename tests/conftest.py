from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from agc.groupfile import load_group
from agc.witness import build_diameter4_witness, build_diameter6_witness

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    assert CORPUS_DIR.is_dir(), "corpus directory missing; run scripts/build_corpus.py"
    return CORPUS_DIR


@pytest.fixture(scope="session")
def corpus_groups(corpus_dir):
    groups = {}
    for path in sorted(corpus_dir.glob("*.json")):
        groups[path.stem] = load_group(path)
    return groups


@pytest.fixture(scope="session")
def witness60():
    return build_diameter4_witness().group


@pytest.fixture(scope="session")
def witness1500():
    return build_diameter6_witness().group
