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

``parse_network`` takes a text in two steps.  The accept step matches
every line once against one pattern (a ``node NAME`` or ``link A B`` line,
or a blank or comment line, each with an optional trailing comment),
mapping the matcher over the lines at C level, and stops at the first line
that does not match.  It slices the matched words into three columns (each
line's node name and its link's two names), drops from each column the
lines that have no such word, and decodes each distinct raw word (quotes
and escapes removed) once per parse.  It then checks the whole spec with
set and dict operations: node names non-empty and unique, each link's two
names declared on earlier lines, no self-link and no link repeated in
either orientation.
A text that passes is accepted there and then.  Any other text goes to the
explain step, which reads it line by line by the tokenizer and the
directive rules, and either returns its spec (a quoted directive, say) or
names the first faulty line and its fault.  The pattern and the tokenizer
take their words from one rule, ``_WORD``, under which a line the pattern
does not match is refused in linear time.  The patterns are compiled when
this module is imported, which the package and the CLI do only on the
first use of a network name, so a command that reads no network does not
compile them.

The four spec rules (no duplicate node, no link to an undeclared node, no
self-link, no repeated link) are stated once, in ``_Declared``.  The explain
step, ``format_network`` and ``network_graph``'s fault path feed it
declarations in order, so all three name the same first fault.  The accept
step's set checks restate the rules in bulk, for well-formed texts only.

Landmark assignment computes a metric basis for the network — through the
closed-form case formulas when the network is a theta graph, otherwise
through the exhaustive oracle — and gives every node its distance-vector
code relative to the landmarks.  Codes are read from the k landmarks' BFS
rows, O(n·k), so the theta fast path never builds the all-pairs matrix.
It runs no other BFS either: ``detect_theta`` proves a theta network
connected by walking its hub-to-hub chains, and only a network that is not
a theta graph gets the one-BFS connectivity check of ``network_graph``.
Codes are pairwise distinct by definition of a resolving set, and that
property is re-checked on every call rather than trusted.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from importlib import resources
from itertools import chain, compress, count, repeat
from operator import lt

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
_PIECE = re.compile(rf"""'([^']*)'|"({_DOUBLE_BODY})"|\\(.)""", re.DOTALL)  # one quoted piece or escape
_DOUBLE_ESCAPE = re.compile(r'\\([\\"])')  # the two escapes inside double quotes
# One lexeme of a line, with one group each for a word and the two faults.
_LEXEME = re.compile(
    rf"({_WORD})"
    r"|#[^\n]*"  # a comment, to the end of the line
    rf'|((?:\\|"{_DOUBLE_BODY}\\)\Z)'  # a trailing backslash, outside or inside double quotes
    r"""|(['"]).*""",  # an unclosed quote
    re.DOTALL,
)
_BLANK = r"[ \t\r\n]"
#: ``_match_line(line)``: the match of a whole ``node NAME`` or ``link A B``
#: line, or of a blank or comment line, with an optional trailing comment;
#: None for any other line.  Its groups are the raw words
#: ``(NAME, None, None)``, ``(None, A, B)`` or ``(None, None, None)``.
_match_line = re.compile(
    rf"{_BLANK}*(?:(?:node{_BLANK}+({_WORD})|link{_BLANK}+({_WORD}){_BLANK}+({_WORD})){_BLANK}*)?(?:#[^\n]*)?",
    re.DOTALL,
).fullmatch


def _piece_text(m: re.Match) -> str:
    single, double, escaped = m.groups()
    if double is not None:
        return _DOUBLE_ESCAPE.sub(r"\1", double) if "\\" in double else double
    return single if single is not None else escaped


def _decode(word: str) -> str:
    """The token text of one raw word matched by ``_WORD``, with its quotes
    and escapes removed."""
    if "\\" in word or '"' in word:
        return _PIECE.sub(_piece_text, word)
    if "'" in word:
        return word.replace("'", "")
    return word


def _split_line(line: str) -> list[str]:
    """The tokens of one line, as ``shlex.split(line, comments=True)`` gives
    them; ``ValueError`` with shlex's message on a malformed line."""
    tokens = []
    for word, no_escaped, no_closing in _LEXEME.findall(line):
        if word:
            tokens.append(_decode(word))
        elif no_escaped:
            raise ValueError("No escaped character")
        elif no_closing:
            raise ValueError("No closing quotation")
    return tokens


def parse_network(text: str) -> NetworkSpec:
    """Parse network text, rejecting duplicate nodes, unknown names in links,
    self-links, and duplicate links.  Comments (#) and blank lines are
    ignored."""
    spec = _accept(text)
    return spec if spec is not None else _explain(text)


def _accept(text: str) -> NetworkSpec | None:
    """The accept step: the spec of a well-formed text, or None for any
    other text.

    Every line is matched once, at C level, and the spec is then checked as
    a whole by set and dict operations, column by column: only the words a
    line holds are decoded and looked up, not the Nones of the names it
    lacks.  Nothing here names a fault; for a text refused here,
    ``_explain`` does.
    """
    try:
        # Three raw words a line: a node line's name, a link line's two
        # names, and None for each name the line does not have.
        raw = list(chain.from_iterable(map(re.Match.groups, map(_match_line, text.splitlines()))))
    except TypeError:  # groups() of None: a line the matcher refuses
        return None
    # The columns: each line's node name, link's first name and second name.
    named, firsts, seconds = raw[0::3], raw[1::3], raw[2::3]
    # The indexes of the link lines, read once for each end.
    link_lines = list(compress(count(), firsts))
    # A raw word is never empty, so filter drops only the Nones of the
    # lines without that name.
    raw_nodes, raw_a, raw_b = list(filter(None, named)), list(filter(None, firsts)), list(filter(None, seconds))
    # Each distinct raw word is decoded once, so a name is decoded on its
    # node line and read back on every link that spells it the same way.
    distinct = dict.fromkeys(chain(raw_nodes, raw_a, raw_b))
    names = dict(zip(distinct, map(_decode, distinct)))
    if "" in names.values():  # an empty name
        return None
    nodes = list(map(names.__getitem__, raw_nodes))
    a, b = list(map(names.__getitem__, raw_a)), list(map(names.__getitem__, raw_b))
    # The index of the line that declares each node.
    declared = dict(zip(nodes, compress(count(), named)))
    links = tuple(zip(a, b))
    linked = set(links)
    undeclared = len(named)  # past every line, for a name no line declares
    if (
        len(declared) != len(nodes)  # a duplicate node
        # a link to a node declared on a later line or on none
        or not all(map(lt, map(declared.get, a, repeat(undeclared)), link_lines))
        or not all(map(lt, map(declared.get, b, repeat(undeclared)), link_lines))
        or len(linked) != len(a)  # a link repeated in one orientation
        # or in both, or a self-link, which is its own reverse
        or not linked.isdisjoint(zip(b, a))
    ):
        return None
    return NetworkSpec(nodes=tuple(nodes), links=links)


class _Declared:
    """The spec rules: ``node`` and ``link`` take declarations in order and
    raise ``ValueError`` naming a duplicate node, a link to an undeclared
    node, a self-link, or a link repeated in either orientation.
    ``_Declared(nodes, links)`` declares a whole spec."""

    def __init__(self, nodes: Iterable[str] = (), links: Iterable[tuple[str, str]] = ()):
        self.nodes: dict[str, None] = {}
        # Each link by its endpoints in sorted order, so a reversed repeat is found.
        self.links: dict[tuple[str, str], tuple[str, str]] = {}
        for name in nodes:
            self.node(name)
        for a, b in links:
            self.link(a, b)

    def node(self, name: str) -> None:
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        self.nodes[name] = None

    def link(self, a: str, b: str) -> None:
        for name in (a, b):
            if name not in self.nodes:
                raise ValueError(f"unknown node {name!r}")
        if a == b:
            raise ValueError(f"self-link at {a!r}")
        key = (a, b) if a < b else (b, a)
        if key in self.links:
            raise ValueError(f"duplicate link {a!r} -- {b!r}")
        self.links[key] = (a, b)


def _explain(text: str) -> NetworkSpec:
    """The explain step: read the text line by line by the tokenizer and the
    directive rules, giving its spec or a ``NetworkParseError`` that names
    its first faulty line."""
    declared = _Declared()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = _split_line(raw)
        except ValueError as exc:
            raise NetworkParseError(lineno, f"unparsable line ({exc})") from exc
        if not tokens:
            continue
        directive, *args = tokens
        if directive == "node":
            if len(args) != 1:
                raise NetworkParseError(lineno, "node takes exactly one name")
            if not args[0]:
                raise NetworkParseError(lineno, "empty node name")
            declare = declared.node
        elif directive == "link":
            if len(args) != 2:
                raise NetworkParseError(lineno, "link takes exactly two names")
            declare = declared.link
        else:
            raise NetworkParseError(lineno, f"unknown directive {directive!r}")
        try:
            declare(*args)
        except ValueError as exc:
            raise NetworkParseError(lineno, str(exc)) from exc
    return NetworkSpec(nodes=tuple(declared.nodes), links=tuple(declared.links.values()))


def format_network(spec: NetworkSpec) -> str:
    """Render a spec back to network text.

    ``parse_network(format_network(spec)) == spec`` for every spec it
    accepts.  Raises ``ValueError`` for a spec whose text ``parse_network``
    would reject: a node name that text cannot carry (empty, or holding a
    line break), a duplicate node, a link to an undeclared node, a self-link,
    or a duplicate link in either orientation.
    """
    declared = _Declared()
    for name in spec.nodes:
        if name.splitlines() != [name]:
            raise ValueError(f"node name {name!r} is empty or holds a line break")
        declared.node(name)
    for a, b in spec.links:
        declared.link(a, b)
    import shlex  # only writing network text quotes names; parsing never needs shlex

    lines = [f"node {shlex.quote(name)}" for name in spec.nodes]
    lines.extend(f"link {shlex.quote(a)} {shlex.quote(b)}" for a, b in spec.links)
    return "\n".join(lines) + "\n"


_DISCONNECTED = "network graph is disconnected"


def network_graph(spec: NetworkSpec) -> Graph:
    """Labelled graph of the network (node i of the declaration order is
    vertex i).  Raises ``ValueError`` when the network declares no node or
    a node twice, links an undeclared node or a node to itself, repeats a
    link in either orientation, or is disconnected; a bad node or link gets
    the message ``format_network`` gives it."""
    g = _build_graph(spec)
    if not g.is_connected():
        raise ValueError(_DISCONNECTED)
    return g


def _build_graph(spec: NetworkSpec) -> Graph:
    """``network_graph`` without its connectivity check, which runs a BFS."""
    if not spec.nodes:
        raise ValueError("network declares no nodes")
    index = {name: i for i, name in enumerate(spec.nodes, start=1)}
    try:
        g = new_graph(len(spec.nodes), [(index[a], index[b]) for a, b in spec.links])
    except (KeyError, ValueError):  # a link to an undeclared node, or a self-link
        _Declared(spec.nodes, spec.links)
        raise
    # a node declared twice, or a link repeated in either orientation (counted once)
    if len(index) != len(spec.nodes) or sum(map(len, g.adjacency)) != 2 * len(spec.links):
        _Declared(spec.nodes, spec.links)
    return g


def assign_landmarks(spec: NetworkSpec) -> LandmarkTable:
    """Compute landmarks and per-node codes for a connected network.

    Theta-shaped networks take the closed-form fast path (method records the
    case tag); everything else falls back to the exhaustive oracle, which
    raises ``ValueError`` when a search level is over its work budget.
    Raises ``ValueError`` as ``network_graph`` does for a bad or
    disconnected spec.  ``detect_theta`` proves a theta network connected
    without a BFS, so such a network runs one BFS per landmark and no other.
    """
    g = _build_graph(spec)
    shape = detect_theta(g)
    if shape is not None:
        params = shape.params
        result = closed_form_basis(params.p, params.q, params.r)
        basis = sorted(shape.labels[b - 1] for b in result.basis)
        method = f"closed-form ({result.case.tag})"
    elif not g.is_connected():
        raise ValueError(_DISCONNECTED)
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
