"""JSON interchange format for permutation groups given by generators.

A group file is a UTF-8 JSON object
``{"name": optional string, "degree": n, "generators": [[i0,...,i_{n-1}], ...]}``
with 0-indexed image arrays.  Serialization emits keys in the order name,
degree, generators, with no insignificant whitespace, so files are bit-exact
reproducible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .errors import FormatError
from .perm import DEFAULT_MAX_ORDER, FiniteGroup, closure


class GroupFile(NamedTuple):
    degree: int
    generators: list[list[int]]
    name: str | None = None


def parse_group_file(text: str) -> GroupFile:
    """The group file ``text``, checked for its format only: a JSON object
    with a positive integer degree, an optional string name, and a list of
    generators, each a list of exactly ``degree`` integers, returned as
    they were read.  Raises FormatError.  Whether the generators are
    permutations is ``closure``'s check alone."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise FormatError("top-level value must be an object")
    degree = obj.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise FormatError("'degree' must be a positive integer")
    gens = obj.get("generators")
    if not isinstance(gens, list):
        raise FormatError("'generators' must be a list of image arrays")
    name = obj.get("name")
    if name is not None:
        if not isinstance(name, str):
            raise FormatError("'name' must be a string when present")
        try:  # JSON escapes can spell a lone surrogate, which no output can hold
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise FormatError("'name' is not encodable as UTF-8") from None
    for g in gens:
        # exact types: a bool is an int subclass, and JSON makes no other
        if not isinstance(g, list) or not set(map(type, g)) <= {int}:
            raise FormatError("each generator must be a list of integers")
        if len(g) != degree:
            raise FormatError(f"generator has {len(g)} images but degree is {degree}")
    return GroupFile(degree=degree, generators=gens, name=name)


def serialize_group_file(f: GroupFile) -> str:
    obj: dict = {}
    if f.name is not None:
        obj["name"] = f.name
    obj["degree"] = f.degree
    obj["generators"] = f.generators
    return json.dumps(obj, separators=(",", ":"))


def group_to_file(G: FiniteGroup) -> GroupFile:
    return GroupFile(degree=G.degree, generators=G.generator_rows.tolist(), name=G.name)


def load_group(path: str | Path, *, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8: {exc}") from exc
    gf = parse_group_file(text)
    return closure(gf.degree, gf.generators, max_order=max_order, name=gf.name)


def save_group(G: FiniteGroup, path: str | Path) -> None:
    Path(path).write_text(serialize_group_file(group_to_file(G)), encoding="utf-8")
