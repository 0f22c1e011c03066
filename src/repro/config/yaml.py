"""A pragmatic YAML-subset parser and dumper.

Supported syntax (everything the framework's configs use):

* block mappings and sequences nested by indentation;
* sequence items that open an inline mapping (``- name: x``);
* flow collections (``[1, 2]``, ``{a: 1, b: 2}``) with nesting;
* scalars: integers, floats (incl. scientific notation, ``.5``, ``inf``,
  ``nan``), booleans (``true``/``false`` any case), ``null``/``~``, single- and
  double-quoted strings, plain strings;
* full-line and trailing ``#`` comments;
* empty documents (-> ``None``).

Unsupported on purpose: anchors/aliases, tags, multi-line block scalars,
multiple documents.  The parser raises :class:`YamlError` with a line number
on malformed input rather than guessing.
"""

from __future__ import annotations

import io
import math
import re
from typing import Any, List, Optional, Tuple, Union

__all__ = ["YamlError", "loads", "load", "dump", "dumps"]


class YamlError(ValueError):
    """Raised on malformed input, carrying a 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# --------------------------------------------------------------------------
# Scalar handling
# --------------------------------------------------------------------------

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_BOOL_TRUE = {"true", "True", "TRUE", "yes", "on"}
_BOOL_FALSE = {"false", "False", "FALSE", "no", "off"}
_NULLS = {"null", "Null", "NULL", "~", ""}


def parse_scalar(text: str, line: Optional[int] = None) -> Any:
    """Parse a single scalar token (already stripped, comments removed)."""
    if text.startswith(("[", "{")):
        value, rest = _parse_flow(text, line)
        if rest.strip():
            raise YamlError(f"trailing content after flow collection: {rest!r}", line)
        return value
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        body = text[1:-1]
        if text[0] == '"':
            return _unescape(body, line)
        return body.replace("''", "'")
    if text in _NULLS:
        return None
    if text in _BOOL_TRUE:
        return True
    if text in _BOOL_FALSE:
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text) and not _INT_RE.match(text):
        return float(text)
    low = text.lower()
    if low in {".inf", "inf", "+.inf"}:
        return math.inf
    if low in {"-.inf", "-inf"}:
        return -math.inf
    if low in {".nan", "nan"}:
        return math.nan
    return text


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "0": "\x00"}


def _unescape(body: str, line: Optional[int]) -> str:
    out: List[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(body):
            raise YamlError("dangling escape in double-quoted string", line)
        esc = body[i + 1]
        if esc in _ESCAPES:
            out.append(_ESCAPES[esc])
            i += 2
        elif esc == "x" and i + 3 < len(body) + 1:
            out.append(chr(int(body[i + 2 : i + 4], 16)))
            i += 4
        elif esc == "u" and i + 5 < len(body) + 1:
            out.append(chr(int(body[i + 2 : i + 6], 16)))
            i += 6
        else:
            raise YamlError(f"unknown escape \\{esc}", line)
    return "".join(out)


def _escape(text: str) -> str:
    out: List[str] = []
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20 or ch in "\x7f\x85  ":
            code = ord(ch)
            out.append(f"\\x{code:02x}" if code <= 0xFF else f"\\u{code:04x}")
        else:
            out.append(ch)
    return "".join(out)


def _parse_flow(text: str, line: Optional[int]) -> Tuple[Any, str]:
    """Parse a flow collection at the start of ``text``; return (value, rest)."""
    if text.startswith("["):
        items: List[Any] = []
        rest = text[1:].lstrip()
        if rest.startswith("]"):
            return items, rest[1:]
        while True:
            value, rest = _parse_flow_value(rest, line)
            items.append(value)
            rest = rest.lstrip()
            if rest.startswith(","):
                rest = rest[1:].lstrip()
                continue
            if rest.startswith("]"):
                return items, rest[1:]
            raise YamlError(f"expected ',' or ']' in flow sequence near {rest!r}", line)
    if text.startswith("{"):
        mapping: dict = {}
        rest = text[1:].lstrip()
        if rest.startswith("}"):
            return mapping, rest[1:]
        while True:
            key, rest = _parse_flow_value(rest, line)
            rest = rest.lstrip()
            if not rest.startswith(":"):
                raise YamlError(f"expected ':' in flow mapping near {rest!r}", line)
            value, rest = _parse_flow_value(rest[1:].lstrip(), line)
            mapping[key] = value
            rest = rest.lstrip()
            if rest.startswith(","):
                rest = rest[1:].lstrip()
                continue
            if rest.startswith("}"):
                return mapping, rest[1:]
            raise YamlError(f"expected ',' or '}}' in flow mapping near {rest!r}", line)
    raise YamlError(f"not a flow collection: {text!r}", line)


def _parse_flow_value(text: str, line: Optional[int]) -> Tuple[Any, str]:
    text = text.lstrip()
    if not text:
        raise YamlError("unexpected end of flow collection", line)
    if text[0] in "[{":
        return _parse_flow(text, line)
    if text[0] in "'\"":
        quote = text[0]
        i = 1
        while i < len(text):
            if text[i] == quote:
                if quote == "'" and i + 1 < len(text) and text[i + 1] == "'":
                    i += 2
                    continue
                return parse_scalar(text[: i + 1], line), text[i + 1 :]
            if quote == '"' and text[i] == "\\":
                i += 1
            i += 1
        raise YamlError("unterminated quoted string in flow collection", line)
    # plain scalar: runs until , ] } or :
    i = 0
    while i < len(text) and text[i] not in ",]}:":
        i += 1
    return parse_scalar(text[:i].strip(), line), text[i:]


def _strip_comment(line: str) -> str:
    """Remove a trailing comment, respecting quoted strings."""
    in_quote: Optional[str] = None
    escaped = False
    for i, ch in enumerate(line):
        if in_quote:
            if escaped:
                escaped = False
            elif ch == "\\" and in_quote == '"':
                escaped = True  # \" inside double quotes does not close them
            elif ch == in_quote:
                in_quote = None
            continue
        if ch in "'\"":
            in_quote = ch
        elif ch == "#" and (i == 0 or line[i - 1] in " \t"):
            return line[:i]
    return line


def _split_key(content: str, line: int) -> Tuple[str, str]:
    """Split ``key: value`` at the first ``:`` outside quotes/brackets."""
    depth = 0
    in_quote: Optional[str] = None
    for i, ch in enumerate(content):
        if in_quote:
            if ch == in_quote:
                in_quote = None
            continue
        if ch in "'\"":
            in_quote = ch
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == ":" and depth == 0 and (i + 1 == len(content) or content[i + 1] in " \t"):
            return content[:i].strip(), content[i + 1 :].strip()
    raise YamlError(f"expected 'key: value' but got {content!r}", line)


# --------------------------------------------------------------------------
# Block parser
# --------------------------------------------------------------------------


class _Line:
    __slots__ = ("indent", "content", "number")

    def __init__(self, indent: int, content: str, number: int) -> None:
        self.indent = indent
        self.content = content
        self.number = number


def _logical_lines(text: str) -> List[_Line]:
    out: List[_Line] = []
    # split strictly on \n — str.splitlines() also splits on \x1c-\x1e,
    # \x85,  / , which may legitimately appear inside quotes
    for num, raw in enumerate(text.split("\n"), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise YamlError("tabs are not allowed in indentation", num)
        stripped = _strip_comment(raw).rstrip()
        if not stripped.strip():
            continue
        if stripped.strip() == "---":
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        out.append(_Line(indent, stripped.strip(), num))
    return out


class _Parser:
    def __init__(self, lines: List[_Line]) -> None:
        self.lines = lines
        self.pos = 0

    def peek(self) -> Optional[_Line]:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def parse_block(self, indent: int) -> Any:
        line = self.peek()
        if line is None:
            return None
        if line.content.startswith("- ") or line.content == "-":
            return self._parse_sequence(indent)
        if not _looks_like_mapping(line.content):
            # a bare scalar or flow-collection document ("{}", "[1, 2]", "42")
            self.pos += 1
            return parse_scalar(line.content, line.number)
        return self._parse_mapping(indent)

    def _parse_sequence(self, indent: int) -> List[Any]:
        items: List[Any] = []
        while True:
            line = self.peek()
            if line is None or line.indent < indent:
                return items
            if line.indent > indent:
                raise YamlError("unexpected indentation in sequence", line.number)
            if not (line.content.startswith("- ") or line.content == "-"):
                return items
            rest = line.content[1:].strip()
            self.pos += 1
            if not rest:
                nxt = self.peek()
                if nxt is not None and nxt.indent > indent:
                    items.append(self.parse_block(nxt.indent))
                else:
                    items.append(None)
                continue
            if _looks_like_mapping(rest):
                # "- key: value" opens an inline mapping item; its other keys
                # sit at the dash's indent + 2 (any deeper indent accepted).
                key, value_text = _split_key(rest, line.number)
                item = {parse_scalar(key, line.number): self._value_or_nested(value_text, indent + 2, line)}
                nxt = self.peek()
                while nxt is not None and nxt.indent > indent and not nxt.content.startswith("- "):
                    sub = self._parse_mapping(nxt.indent)
                    item.update(sub)
                    nxt = self.peek()
                items.append(item)
            else:
                items.append(parse_scalar(rest, line.number))

    def _parse_mapping(self, indent: int) -> dict:
        mapping: dict = {}
        while True:
            line = self.peek()
            if line is None or line.indent < indent:
                return mapping
            if line.indent > indent:
                raise YamlError("unexpected indentation in mapping", line.number)
            if line.content.startswith("- "):
                return mapping
            key, value_text = _split_key(line.content, line.number)
            key_obj = parse_scalar(key, line.number)
            self.pos += 1
            if key_obj in mapping:
                raise YamlError(f"duplicate mapping key {key!r}", line.number)
            mapping[key_obj] = self._value_or_nested(value_text, indent + 1, line)

    def _value_or_nested(self, value_text: str, min_child_indent: int, line: _Line) -> Any:
        if value_text:
            return parse_scalar(value_text, line.number)
        nxt = self.peek()
        if nxt is not None and nxt.indent >= min_child_indent:
            return self.parse_block(nxt.indent)
        if nxt is not None and nxt.indent == line.indent and nxt.content.startswith("- "):
            # sequences are commonly written at the parent key's indent
            return self._parse_sequence(nxt.indent)
        return None


def _looks_like_mapping(text: str) -> bool:
    if text.startswith(("[", "{")):
        return False
    try:
        key, _ = _split_key(text, 0)
        # a fully-quoted scalar containing ':' is not a mapping; a quoted KEY is
        return bool(key)
    except YamlError:
        return False


def loads(text: str) -> Any:
    """Parse a YAML document from a string."""
    lines = _logical_lines(text)
    if not lines:
        return None
    parser = _Parser(lines)
    value = parser.parse_block(lines[0].indent)
    leftover = parser.peek()
    if leftover is not None:
        raise YamlError(f"unexpected content {leftover.content!r}", leftover.number)
    return value


def load(source: Union[str, "io.TextIOBase"]) -> Any:
    """Parse YAML from a file path or open text stream."""
    if hasattr(source, "read"):
        return loads(source.read())  # type: ignore[union-attr]
    with open(source, "r", encoding="utf8") as fh:
        return loads(fh.read())


# --------------------------------------------------------------------------
# Dumper
# --------------------------------------------------------------------------

# \Z, not $: "$" matches before a trailing newline, which would let a value
# like "A\n" dump as a bare scalar and lose its newline on the way back in
_PLAIN_SAFE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-/]*\Z")


def _dump_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        if math.isinf(value):
            return ".inf" if value > 0 else "-.inf"
        if math.isnan(value):
            return ".nan"
        return repr(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if _PLAIN_SAFE.match(text) and parse_scalar(text) == text:
        return text
    return '"' + _escape(text) + '"'


def _dump_block(value: Any, indent: int, out: List[str]) -> None:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            out.append(pad + "{}")
            return
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}{_dump_scalar(k)}:")
                _dump_block(v, indent + 2, out)
            else:
                out.append(f"{pad}{_dump_scalar(k)}: {_dump_flow(v)}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(pad + "[]")
            return
        for item in value:
            if isinstance(item, (dict, list)) and item:
                if isinstance(item, dict):
                    first, *others = item.items()
                    k0, v0 = first
                    if isinstance(v0, (dict, list)) and v0:
                        out.append(f"{pad}- {_dump_scalar(k0)}:")
                        _dump_block(v0, indent + 4, out)
                    else:
                        out.append(f"{pad}- {_dump_scalar(k0)}: {_dump_flow(v0)}")
                    for k, v in others:
                        if isinstance(v, (dict, list)) and v:
                            out.append(f"{pad}  {_dump_scalar(k)}:")
                            _dump_block(v, indent + 4, out)
                        else:
                            out.append(f"{pad}  {_dump_scalar(k)}: {_dump_flow(v)}")
                else:
                    out.append(f"{pad}-")
                    _dump_block(item, indent + 2, out)
            else:
                out.append(f"{pad}- {_dump_flow(item)}")
    else:
        out.append(pad + _dump_scalar(value))


def _dump_flow(value: Any) -> str:
    if isinstance(value, dict):
        inner = ", ".join(f"{_dump_scalar(k)}: {_dump_flow(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_dump_flow(v) for v in value) + "]"
    return _dump_scalar(value)


def dumps(value: Any) -> str:
    """Serialize ``value`` to a YAML string this module can re-parse."""
    out: List[str] = []
    _dump_block(value, 0, out)
    return "\n".join(out) + "\n"


def dump(value: Any, path: str) -> None:
    with open(path, "w", encoding="utf8") as fh:
        fh.write(dumps(value))
