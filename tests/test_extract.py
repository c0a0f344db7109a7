"""The extraction kernel against a Python-regex reference.

``_reference_extract`` is the Python ``re`` chain the kernel replaced. It
backtracks (quadratic on malformed markup), so generated inputs stay small.
"""

from __future__ import annotations

import re
import sys
import time
from html import unescape

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from miru_ray.functions.extract import extract_text
from miru_ray.stages.extract import extract_batch

_SKIP_RE = re.compile(
    r"<(script|style|nav|header|footer|noscript|template)\b[^>]*>.*?</\1\s*>",
    re.S | re.I)
_BLOCK_RE = re.compile(
    r"</?(?:p|div|title|h[1-6]|li|br|tr|td|th|table|ul|ol|article|section|"
    r"body|blockquote|pre)\b[^>]*/?>", re.I)
_TAG_RE = re.compile(r"<[^>]+>")
_WS_RE = re.compile(r"[ \t\r\f\v]+")


def _reference_extract(html: bytes | str) -> str:
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    s = _SKIP_RE.sub("", html)
    s = _BLOCK_RE.sub("\n", s)
    s = _TAG_RE.sub(" ", s)
    s = unescape(s)
    lines = []
    for line in s.split("\n"):
        line = _WS_RE.sub(" ", line).strip()
        if line:
            lines.append(line)
    return "\n".join(lines)


_SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
_TAGS = ["p", "div", "title", "h1", "h6", "li", "br", "td", "pre", "body",
         "script", "style", "nav", "header", "footer", "noscript", "template",
         "b", "span", "a", "i", "em", "link", "pa", "h7"]
# non-ASCII word characters: Python's \b treats them as part of a tag name
_WORD = ["é", "ß", "ж", "中", "٣"]


def _case(draw, name: str) -> str:
    return draw(st.sampled_from([name, name.upper(), name.capitalize()]))


@st.composite
def _tag(draw) -> str:
    name = _case(draw, draw(st.sampled_from(_TAGS)))
    close = draw(st.booleans())
    tail = draw(st.sampled_from(
        ["", "", " ", "/", " class='x'", "\xa0", "\n", " a=b/"] + _WORD))
    end = draw(st.sampled_from([">", ">", " >", "　>", ""]))
    return "<" + "/" * close + name + tail + end


@st.composite
def _skip_element(draw) -> str:
    """A skip element, possibly unclosed, mis-closed or holding another."""
    name = draw(st.sampled_from(["script", "style", "nav", "footer", "template"]))
    body = draw(st.lists(_atom(), max_size=3))
    close = draw(st.sampled_from(
        [f"</{name}>", f"</{name.upper()}  >", f"</{name}\x85>", "", "</style>",
         f"</{name}x>"]))
    return f"<{_case(draw, name)}>" + "".join(body) + close


_TEXT = st.sampled_from(["x", "y z", "Hello", "a&b", "é", "中文", "٣", "<", ">",
                         "&", "/", "="])
_ENTITY = st.sampled_from(["&amp;", "&lt;p&gt;", "&#10;", "&nbsp;", "&#xA0;",
                           "&#8232;", "&amp", "&bogus;", "&#9;", "&quot;"])
_COMMENT = st.sampled_from(["<!-- c -->", "<!--<p>-->", "<!-- <script> -->",
                            "<!---->", "<!DOCTYPE html>"])


def _atom():
    return st.one_of(_TEXT, _ENTITY, _COMMENT, st.sampled_from(_SPACES),
                     st.sampled_from(["  ", "\n\n", " \t "]), _tag())


_DOC = st.lists(st.one_of(_atom(), _skip_element()), max_size=24).map("".join)


def _assert_matches_reference(html: list) -> None:
    want = [_reference_extract(h) for h in html]
    binary = any(isinstance(h, bytes) for h in html)
    batch = pa.table({"url": [str(i) for i in range(len(html))],
                      "html": pa.array(html, pa.binary() if binary else pa.string())})
    assert extract_batch(batch)["text"].to_pylist() == want
    assert [extract_text(h) for h in html] == want


@settings(max_examples=300, deadline=None)
@given(st.lists(_DOC, min_size=1, max_size=8), st.booleans())
def test_extract_matches_reference(docs, as_bytes):
    """extract_batch == extract_text == the Python reference, row by row."""
    _assert_matches_reference([d.encode() for d in docs] if as_bytes else docs)


def test_extract_edge_cases():
    _assert_matches_reference([
        "<p>x</p>\xa0<p>y</p>", "<p>x</p>\u3000\n<div>y</div>", "<pé>x</p>",
        "<p\u3000>x<p—>y", "<scriptж>x</script>y", "<p<script>x</script>ж>y",
        "a&#10;b", "&nbsp;x&nbsp;", "<style>a</style >b", "<SCRIPT>a</script >b",
        "<nav>x", "", "   "])
    _assert_matches_reference([b"\xffx\xfe<p>y", b"<p>ok</p>"])


def test_extract_linear_on_malformed_markup():
    """Inputs that drive a backtracking chain quadratic extract in < 1 s."""
    n = 128 * 1024
    for unit in ("<style>x", "<script>x", "</p"):
        html = (unit * (n // len(unit) + 1))[:n].encode()
        t0 = time.perf_counter()
        extract_text(html)
        assert time.perf_counter() - t0 < 1.0, unit
