"""The per-group fixed cost of a corpus analysis, guarded without timing.

A small group's analysis costs mostly numpy calls, about a microsecond
each, so their number over one pass of ``load_group`` and ``group_report``
on the 37 corpus files stands in for its time.  Counted with
``sys.setprofile``: calls from an agc frame into numpy's C functions,
ufunc methods and array methods (``c_call`` events), and into numpy's
Python functions (``call`` events whose caller is an agc frame).  A ufunc
called directly, such as ``np.minimum(a, b)``, makes no event and is not
counted.  The counts below were measured with Python 3.11 and numpy 2.4."""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from agc import perm
from agc.groupfile import load_group
from agc.verify import group_report

CORPUS_PASS_CALLS = 24_067  # numpy calls of one corpus pass, as measured


def _is_agc(frame) -> bool:
    return frame is not None and frame.f_globals.get("__name__", "").startswith("agc")


def _is_numpy(fn) -> bool:
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, (np.ndarray, np.generic, np.ufunc)):
        return True
    module = getattr(fn, "__module__", None) or getattr(owner, "__name__", None)
    return isinstance(module, str) and module.startswith("numpy")


def _numpy_calls(paths) -> Counter:
    """The numpy calls from agc frames of one pass over ``paths``, by call
    site: (file, function, line, callee)."""
    sites: Counter = Counter()

    def profile(frame, event, arg):
        if event == "c_call":
            if _is_agc(frame) and _is_numpy(arg):
                code = frame.f_code
                sites[code.co_filename.rsplit("/", 1)[-1], code.co_name, frame.f_lineno,
                      getattr(arg, "__name__", "?")] += 1
        elif event == "call":
            caller = frame.f_back
            if frame.f_globals.get("__name__", "").startswith("numpy") and _is_agc(caller):
                code = caller.f_code
                sites[code.co_filename.rsplit("/", 1)[-1], code.co_name, caller.f_lineno,
                      frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        for path in paths:
            group_report(load_group(path))
    finally:
        sys.setprofile(None)
    return sites


def test_a_corpus_pass_stays_within_its_numpy_call_budget(corpus_dir):
    """One pass over the corpus makes at most 5 % more numpy calls than
    measured; on failure the ten largest call sites are shown."""
    paths = sorted(corpus_dir.glob("*.json"))
    group_report(load_group(paths[0]))  # first calls that import or cache
    sites = _numpy_calls(paths)
    total = sum(sites.values())
    largest = "\n".join(f"{count:6d} {site}" for site, count in sites.most_common(10))
    assert total <= CORPUS_PASS_CALLS * 1.05, f"{total} numpy calls; largest sites:\n{largest}"


def test_every_subgroup_of_a_corpus_analysis_keeps_sorted_read_only_members(
        corpus_dir, monkeypatch):
    """Most subgroups are made from members that are sorted and distinct by
    construction and skip ``distinct``; every one made over the corpus
    analyses still keeps strictly increasing, read-only int32 members of
    its parent."""
    made = []
    keep = perm.Subgroup._keep

    def recorded(self, parent, members, generators):
        keep(self, parent, members, generators)
        made.append(self)

    monkeypatch.setattr(perm.Subgroup, "_keep", recorded)
    for path in sorted(corpus_dir.glob("*.json")):
        group_report(load_group(path))
    assert len(made) > 900
    for S in made:
        m = S.members
        assert m.dtype == np.int32 and m.ndim == 1 and not m.flags.writeable, S
        assert m.size and m[0] >= 0 and m[-1] < S.parent.order, S
        assert (m[1:] > m[:-1]).all(), S
