r"""Named networks and landmark assignment.

A network file declares nodes and links, one per line, with shell-style
quoting for names that contain spaces::

    # comment
    node "Field 1"
    node "Field 2"
    link "Field 1" "Field 2"

Each line splits into tokens exactly as ``shlex.split(line, comments=True)``
splits it (POSIX rules):

- whitespace is only space, tab, CR and LF, so ``\x0b`` is part of a word;
- outside quotes, ``#`` starts a comment, even in the middle of a word
  (``a#b`` gives ``a``);
- text in single quotes is literal;
- inside double quotes, only ``\"`` and ``\\`` are escapes;
- outside quotes, a backslash escapes the next character;
- quoted and unquoted pieces next to each other join into one token
  (``'St. Mary'"'"'s'`` gives ``St. Mary's``);
- ``''`` gives an empty token.

An unclosed quote or a trailing backslash makes the line unparsable, with
the message shlex gives.  Lines end at every ``str.splitlines`` boundary, so a name
cannot contain a line break (``\n``, ``\x0b``, ``\x0c``, ``\x85``,
``\u2028``, ...), and it cannot be empty.

``parse_network`` matches each whole line once against one pattern: up to
three words, then an optional comment.  A ``node NAME`` or ``link A B``
line that matches and passes every rule is accepted there, and each
distinct raw word is decoded (quotes and escapes removed) once per parse,
so a name is not decoded again on every link that uses it.  Every other
line (four or more words, an unclosed quote or trailing backslash, an
unknown directive, the wrong number of names, a duplicate, an unknown
name or a self-link) is split again by the tokenizer and read by the
directive rules, which name the fault and its line.  The pattern and the
tokenizer take their words from one rule, ``_WORD``, under which a line
the pattern does not match is refused in linear time.

Landmark assignment computes a metric basis for the network — through the
closed-form case formulas when the network is a theta graph, otherwise
through the exhaustive oracle — and gives every node its distance-vector
code relative to the landmarks.  Codes are read from the k landmarks' BFS
rows, O(n·k), so the theta fast path never builds the all-pairs matrix.
Codes are pairwise distinct by definition of a resolving set, and that
property is re-checked on every call rather than trusted.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources

from .closed_form import closed_form_basis
from .graphs import Graph, new_graph
from .resolve import metric_dimension_oracle
from .theta import detect_theta


class NetworkParseError(ValueError):
    """Malformed network text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class NetworkSpec:
    """Parsed network: node names in declaration order, plus name-pair links."""

    nodes: tuple[str, ...]
    links: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class LandmarkTable:
    """Landmark names (declaration order) and per-node distance codes."""

    landmarks: tuple[str, ...]
    codes: dict[str, tuple[int, ...]]
    method: str


_DOUBLE_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'  # inside double quotes: plain runs, each escape between two
# A word: bare characters, escapes and quoted pieces, joined.  A bare piece
# is one character and every piece is known by its first character, so a
# word splits into pieces one way only and a long word that fails to match
# backtracks in linear time (Python 3.10 has no possessive quantifiers).
_WORD = rf"""(?:[^ \t\r\n'"\\#]|\\.|'[^']*'|"{_DOUBLE_BODY}")+"""


@functools.cache
def _word_decoder() -> Callable[[str], str]:
    """``decode(word)``: the token text of one raw word matched by ``_WORD``,
    with its quotes and escapes removed."""
    piece = re.compile(rf"""'([^']*)'|"({_DOUBLE_BODY})"|\\(.)""", re.DOTALL)
    double_escape = re.compile(r'\\([\\"])')

    def piece_text(m: re.Match) -> str:
        single, double, escaped = m.groups()
        if double is not None:
            return double_escape.sub(r"\1", double)
        return single if single is not None else escaped

    def decode(word: str) -> str:
        if "\\" in word or '"' in word:
            return piece.sub(piece_text, word)
        if "'" in word:
            return word.replace("'", "")
        return word

    return decode


class _DecodedWords(dict[str, str]):
    """Token text by raw word; looking up a missing word decodes it.

    One parse keeps one, so a name is decoded on its node line and read back
    on every link that uses it.
    """

    def __init__(self, decode: Callable[[str], str]):
        super().__init__()
        self.decode = decode

    def __missing__(self, word: str) -> str:
        text = self[word] = self.decode(word)
        return text


@functools.cache
def _line_splitter() -> Callable[[str], list[str]]:
    """The line tokenizer: ``split(line)`` gives the tokens of one line, as
    ``shlex.split(line, comments=True)`` gives them, and raises
    ``ValueError`` with shlex's message on a malformed line.

    Its patterns are compiled on the first call, since only parsing needs
    them, so importing the package for any other command does not pay for
    them.  The cache publishes the finished tokenizer at once, so threads
    that parse their first networks together never see half of it.
    """
    lexeme = re.compile(
        rf"({_WORD})"
        r"|#[^\n]*"  # a comment, to the end of the line
        rf'|((?:\\|"{_DOUBLE_BODY}\\)\Z)'  # a trailing backslash, outside or inside double quotes
        r"""|(['"]).*""",  # an unclosed quote
        re.DOTALL,
    )
    decode = _word_decoder()

    def split(line: str) -> list[str]:
        tokens = []
        for word, no_escaped, no_closing in lexeme.findall(line):
            if word:
                tokens.append(decode(word))
            elif no_escaped:
                raise ValueError("No escaped character")
            elif no_closing:
                raise ValueError("No closing quotation")
        return tokens

    return split


@functools.cache
def _line_matcher() -> Callable[[str], re.Match | None]:
    """``match(line)``: the match of a whole line of at most three words and
    an optional comment, or None.  Its groups are the raw words, None for a
    word the line does not have.  Compiled on the first parse, as the
    tokenizer is.
    """
    blank = r"[ \t\r\n]"
    return re.compile(
        rf"{blank}*(?:({_WORD})(?:{blank}+({_WORD})(?:{blank}+({_WORD}))?)?{blank}*)?(?:#[^\n]*)?",
        re.DOTALL,
    ).fullmatch


def parse_network(text: str) -> NetworkSpec:
    """Parse network text, rejecting duplicate nodes, unknown names in links,
    self-links, and duplicate links.  Comments (#) and blank lines are
    ignored."""
    nodes: list[str] = []
    seen_nodes: set[str] = set()
    links: list[tuple[str, str]] = []
    seen_links: set[tuple[str, str]] = set()
    match_line = _line_matcher()
    split_line = _line_splitter()
    names = _DecodedWords(_word_decoder())
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = match_line(raw)
        if line is not None:
            directive, first, second = line.groups()
            if directive is None:
                continue
            if directive == "node" and second is None and first is not None:
                name = names[first]
                if name and name not in seen_nodes:
                    seen_nodes.add(name)
                    nodes.append(name)
                    continue
            elif directive == "link" and second is not None:
                a, b = names[first], names[second]
                key = (a, b) if a < b else (b, a)
                if a != b and a in seen_nodes and b in seen_nodes and key not in seen_links:
                    seen_links.add(key)
                    links.append((a, b))
                    continue
        # Every line the checks above do not accept is read again by the
        # tokenizer and the directive rules, which name what is wrong with it.
        try:
            tokens = split_line(raw)
        except ValueError as exc:
            raise NetworkParseError(lineno, f"unparsable line ({exc})") from exc
        if not tokens:
            continue
        directive, *args = tokens
        if directive == "node":
            if len(args) != 1:
                raise NetworkParseError(lineno, "node takes exactly one name")
            (name,) = args
            if not name:
                raise NetworkParseError(lineno, "empty node name")
            if name in seen_nodes:
                raise NetworkParseError(lineno, f"duplicate node {name!r}")
            seen_nodes.add(name)
            nodes.append(name)
        elif directive == "link":
            if len(args) != 2:
                raise NetworkParseError(lineno, "link takes exactly two names")
            a, b = args
            for name in (a, b):
                if name not in seen_nodes:
                    raise NetworkParseError(lineno, f"unknown node {name!r}")
            if a == b:
                raise NetworkParseError(lineno, f"self-link at {a!r}")
            key = (a, b) if a < b else (b, a)
            if key in seen_links:
                raise NetworkParseError(lineno, f"duplicate link {a!r} -- {b!r}")
            seen_links.add(key)
            links.append((a, b))
        else:
            raise NetworkParseError(lineno, f"unknown directive {directive!r}")
    return NetworkSpec(nodes=tuple(nodes), links=tuple(links))


def format_network(spec: NetworkSpec) -> str:
    """Render a spec back to network text.

    ``parse_network(format_network(spec)) == spec`` for every spec it
    accepts.  Raises ``ValueError`` for a spec whose text ``parse_network``
    would reject: a node name that text cannot carry (empty, or holding a
    line break), a duplicate node, a link to an undeclared node, a self-link,
    or a duplicate link in either orientation.
    """
    declared: set[str] = set()
    for name in spec.nodes:
        if name.splitlines() != [name]:
            raise ValueError(f"node name {name!r} is empty or holds a line break")
        if name in declared:
            raise ValueError(f"duplicate node {name!r}")
        declared.add(name)
    linked: set[tuple[str, str]] = set()
    for a, b in spec.links:
        for name in (a, b):
            if name not in declared:
                raise ValueError(f"unknown node {name!r}")
        if a == b:
            raise ValueError(f"self-link at {a!r}")
        key = (min(a, b), max(a, b))
        if key in linked:
            raise ValueError(f"duplicate link {a!r} -- {b!r}")
        linked.add(key)
    import shlex  # only writing network text quotes names; parsing never needs shlex

    lines = [f"node {shlex.quote(name)}" for name in spec.nodes]
    lines.extend(f"link {shlex.quote(a)} {shlex.quote(b)}" for a, b in spec.links)
    return "\n".join(lines) + "\n"


def network_graph(spec: NetworkSpec) -> Graph:
    """Labelled graph of the network (node i of the declaration order is
    vertex i).  Raises ``ValueError`` when the network declares no node or
    a node twice, links an undeclared node or a node to itself, or is
    disconnected."""
    if not spec.nodes:
        raise ValueError("network declares no nodes")
    index = {name: i for i, name in enumerate(spec.nodes, start=1)}
    if len(index) != len(spec.nodes):
        twice = next(name for i, name in enumerate(spec.nodes, start=1) if index[name] != i)
        raise ValueError(f"duplicate node {twice!r}")
    try:
        edges = [(index[a], index[b]) for a, b in spec.links]
    except KeyError as exc:
        raise ValueError(f"unknown node {exc.args[0]!r}") from None
    g = new_graph(len(spec.nodes), edges)
    if not g.is_connected():
        raise ValueError("network graph is disconnected")
    return g


def assign_landmarks(spec: NetworkSpec) -> LandmarkTable:
    """Compute landmarks and per-node codes for a connected network.

    Theta-shaped networks take the closed-form fast path (method records the
    case tag); everything else falls back to the exhaustive oracle, which
    raises ``ValueError`` when a search level is over its work budget.
    """
    g = network_graph(spec)
    shape = detect_theta(g)
    if shape is not None:
        params = shape.params
        result = closed_form_basis(params.p, params.q, params.r)
        basis = sorted(shape.labels[b - 1] for b in result.basis)
        method = f"closed-form ({result.case.tag})"
    else:
        oracle = metric_dimension_oracle(g)
        basis = sorted(oracle.witness)
        method = "oracle"
    codes = dict(zip(spec.nodes, zip(*(g.distance_row(w) for w in basis))))
    if len(set(codes.values())) != len(spec.nodes):
        raise RuntimeError("landmark codes collide; resolving-set postcondition violated")
    return LandmarkTable(
        landmarks=tuple(spec.nodes[v - 1] for v in basis),
        codes=codes,
        method=method,
    )


def field_network_text() -> str:
    """The bundled twelve-field logistics fixture (two overlapping service
    cycles sharing three fields)."""
    return resources.files("thetadim").joinpath("data/field_network.txt").read_text()
