"""HTML → text extraction — one Arrow/RE2 column kernel.

The reference has no HTML stage (values arrive pre-fielded as strings,
miru-api/.../activity/MiruActivity.java:41); the north-rule adds it for
Common-Crawl-style pages. Contract (BASELINE.json input_hint): extraction
must be **byte-identical per url** to the golden ``text`` column. The
build (stages/extract.py), the oracle and the fixture check all run
``extract_column``; ``extract_text`` is its one-row form.

Steps, in order. Each regex step is one RE2 pass over the column: linear
time, no backtracking, so malformed markup such as an unclosed
``<style>`` costs no more than well-formed markup.

1. bytes decode as UTF-8; invalid sequences become U+FFFD.
2. A skip element (script/style/nav/header/footer/noscript/template) is
   dropped from its open tag through the first close tag of the same
   name. One leftmost-first alternation does this for all seven names;
   an unclosed one is left to step 4.
3. Block tags become a newline.
4. Every other tag becomes a space.
5. Rows that still contain ``&`` are unescaped with ``html.unescape``.
6. Inline runs of ASCII ``[ \\t\\r\\f\\v]`` collapse to one space.
7. Each line is stripped of the 29 ``str.isspace()`` characters, and
   empty lines are dropped.

RE2's ``\\b`` and ``\\s`` are ASCII-only, so the patterns spell out
Unicode word characters (a tag name ends before a character that is not
a letter, digit or ``_``) and the ``str.isspace()`` set. Tag names match
case-insensitively under RE2's Unicode case folding.
"""

from __future__ import annotations

from html import unescape

import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["extract_column", "extract_text", "EXTRACTOR_VERSION"]

# Bump when extraction semantics change; recorded in index manifests so a
# resume never mixes extractor versions.
EXTRACTOR_VERSION = 2

_SKIP = ("script", "style", "nav", "header", "footer", "noscript", "template")
_BLOCK = ("p|div|title|h[1-6]|li|br|tr|td|th|table|ul|ol|article|section|"
          "body|blockquote|pre")
# the characters str.isspace() (and so str.strip()) treats as whitespace
_SPACE = (r"[\t\n\v\f\r\x1c-\x1f \x85\xa0\x{1680}\x{2000}-\x{200a}"
          r"\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}]")


def _tag_patterns(word: str) -> tuple[str, str]:
    """(skip element, block tag) patterns. A tag name must end at a
    character outside the ``word`` class, as at Python's ``\\b``."""
    rest = rf"(?:[^{word}>][^>]*)?>"
    skip = "|".join(f"<(?i:{t}){rest}(?s:.*?)</(?i:{t}){_SPACE}*>" for t in _SKIP)
    return skip, f"</?(?i:{_BLOCK}){rest}"


# Word characters are Unicode letters, digits and '_'. RE2 spends
# milliseconds compiling each \pL\pN class on every call, so a pass uses the
# ASCII class unless its input has a tag name followed by a non-ASCII
# character; otherwise the two classes give the same result.
_ASCII_WORD = _tag_patterns("0-9A-Za-z_")
_UNICODE_WORD = _tag_patterns(r"\pL\pN_")
_NAME_THEN_NON_ASCII = rf"</?(?i:{'|'.join(_SKIP)}|{_BLOCK})[^\x00-\x7f]"
_WS_STEPS = ((r"[ \t\r\f\v]+", " "),
             (f"{_SPACE}*\n{_SPACE}*", "\n"),
             (f"^{_SPACE}+|{_SPACE}+$", ""))


def extract_column(html: pa.Array | pa.ChunkedArray) -> pa.Array | pa.ChunkedArray:
    """html (binary or string) → extracted text (string); nulls stay null."""
    try:
        s = html.cast(pa.string())
    except pa.ArrowInvalid:   # invalid UTF-8: decode as bytes.decode(errors="replace")
        s = pa.array([None if h is None else h.decode("utf-8", "replace")
                      for h in html.to_pylist()], pa.string())
    for step, repl in enumerate(("", "\n")):   # skip elements, then block tags
        unicode = pc.any(pc.match_substring_regex(s, _NAME_THEN_NON_ASCII)).as_py()
        pattern = (_UNICODE_WORD if unicode else _ASCII_WORD)[step]
        s = pc.replace_substring_regex(s, pattern, repl)
    s = pc.replace_substring_regex(s, "<[^>]+>", " ")
    if pc.any(pc.match_substring(s, "&")).as_py():
        s = pa.array([None if v is None else unescape(v) for v in s.to_pylist()],
                     pa.string())
    for pattern, repl in _WS_STEPS:
        s = pc.replace_substring_regex(s, pattern, repl)
    return s


def extract_text(html: bytes | str) -> str:
    """One-row form of ``extract_column``."""
    if isinstance(html, (bytearray, memoryview)):
        html = bytes(html)
    return extract_column(pa.array([html])).to_pylist()[0]
