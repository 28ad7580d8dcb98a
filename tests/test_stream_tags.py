"""Tooling guard: stream tags are distinct, and each one has exactly one consumer.

A retired tag left in streams.py, or two call sites drawing from one tag,
would let consumers share counter space under one master seed.
"""

import ast
from collections import Counter
from pathlib import Path

import blgisim
from blgisim import streams

SOURCES = sorted(Path(blgisim.__file__).parent.glob("*.py"))
TAGS = {name: value for name, value in vars(streams).items() if name.endswith("_STREAM")}
DRAW_FUNCTIONS = ("window_uniforms", "stream")


def _name(node) -> "str | None":
    """The bare or attribute name a node refers to, if any."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _draw_call_sites() -> Counter:
    """Number of window_uniforms/stream call sites in the package passing each tag name."""
    sites = Counter()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _name(node.func) in DRAW_FUNCTIONS:
                args = [*node.args, *(kw.value for kw in node.keywords)]
                sites.update({_name(arg) for arg in args} & TAGS.keys())
    return sites


def test_stream_tags_have_distinct_values():
    assert TAGS
    assert len(set(TAGS.values())) == len(TAGS), TAGS


def test_each_stream_tag_is_drawn_at_exactly_one_call_site():
    sites = _draw_call_sites()
    assert {name: sites[name] for name in TAGS} == dict.fromkeys(TAGS, 1)
