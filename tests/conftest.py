from __future__ import annotations

import contextlib
import resource
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

from agc.constructions import cyclic, matrix_action_group, metacyclic
from agc.groupfile import load_group
from agc.products import direct_product
from agc.witness import build_diameter4_witness, build_diameter6_witness

# every run of the suite draws the same examples, with no time limit on one
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    assert CORPUS_DIR.is_dir(), "corpus directory missing; run scripts/build_corpus.py"
    return CORPUS_DIR


@contextlib.contextmanager
def capped_address_space(extra: int):
    """Allow this process ``extra`` bytes of address space beyond what it
    maps now, so that a runaway allocation raises MemoryError instead of
    exhausting the host.  Linux only; elsewhere no cap is set."""
    try:
        with open("/proc/self/status") as status:
            mapped = next(int(line.split()[1]) << 10 for line in status
                          if line.startswith("VmSize:"))
    except (OSError, StopIteration):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = mapped + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture()
def address_space_cap():
    """Allow this process 1 GiB of address space beyond what it maps now."""
    with capped_address_space(1 << 30):
        yield


@pytest.fixture()
def address_space_allowance():
    """``capped_address_space``, for a test that sets its own allowance."""
    return capped_address_space


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


@pytest.fixture(scope="session")
def witness1500_x_c2(witness1500):
    """W1500 × C2, order and degree 3000: the group of the analyze-3000 benchmark."""
    return direct_product(witness1500, cyclic(2))


@pytest.fixture(scope="session")
def extremal_groups():
    """Three groups at the paper's bounds, by name: C5² ⋊ C4, the generator
    acting by diag(−1, 2), of two-prime order 100 and diameter 4;
    (C7 × C19) ⋊ C9, of odd cube-free order 1 197 and diameter 4; and D12's
    natural representation over GF(7), a by diag(5, 3) and b swapping the
    coordinates, of order 588, derived length 3 and diameter 5."""
    c4, d12 = cyclic(4), metacyclic(6, 2, 5)
    a, b = d12.generators
    return {
        "two-prime-4": matrix_action_group(5, 2, c4, {c4.generators[0]: [[4, 0], [0, 2]]}),
        "cube-free-odd-4": metacyclic(133, 9, 23),
        "diameter-5": matrix_action_group(7, 2, d12, {a: [[5, 0], [0, 3]],
                                                      b: [[0, 1], [1, 0]]}),
    }
