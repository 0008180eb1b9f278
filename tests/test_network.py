"""Network parsing and landmark assignment."""

import os
import random
import shlex
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetadim import (
    NetworkParseError,
    NetworkSpec,
    assign_landmarks,
    bfs_distances,
    build_c,
    field_network_text,
    metric_dimension_oracle,
    network_graph,
    parse_network,
)
from thetadim import network

_split_line = network._split_line


TWO_NODES = """
node a
node b
link a b
"""


def path_spec(n):
    names = tuple(f"n{i}" for i in range(1, n + 1))
    links = tuple((f"n{i}", f"n{i + 1}") for i in range(1, n))
    return NetworkSpec(nodes=names, links=links)


def naive_network_text(spec):
    """The spec written out line by line, with no check."""
    lines = [f"node {shlex.quote(name)}\n" for name in spec.nodes]
    lines += [f"link {shlex.quote(a)} {shlex.quote(b)}\n" for a, b in spec.links]
    return "".join(lines)


def test_parse_two_nodes_one_link():
    spec = parse_network(TWO_NODES)
    assert spec.nodes == ("a", "b")
    assert spec.links == (("a", "b"),)


def test_parse_field_fixture():
    spec = parse_network(field_network_text())
    assert len(spec.nodes) == 12
    assert len(spec.links) == 13
    assert spec.nodes[0] == "Field 1"


def test_parse_reports_line_numbers():
    with pytest.raises(NetworkParseError) as exc:
        parse_network("node a\nnode b\nlnik a b\n")
    assert exc.value.line == 3
    assert "lnik" in str(exc.value)


#: Each malformed text with the line and the fault that parsing names.
_MALFORMED = {
    "node a\nnode a\n": (2, "duplicate node 'a'"),
    "node a\nlink a b\n": (2, "unknown node 'b'"),
    "node a\nlink a a\n": (2, "self-link at 'a'"),
    "node a\nnode b\nlink a b\nlink b a\n": (4, "duplicate link 'b' -- 'a'"),
    "node a\nnode b\nlink a b\nlink a b\n": (4, "duplicate link 'a' -- 'b'"),
    "node a\nnode b\nlink\n": (3, "link takes exactly two names"),
    "node\n": (1, "node takes exactly one name"),
    "node ''\n": (1, "empty node name"),
    "frob a\n": (1, "unknown directive 'frob'"),
}


@pytest.mark.parametrize("text", list(_MALFORMED))
def test_parse_rejects_malformed(text):
    line, message = _MALFORMED[text]
    with pytest.raises(NetworkParseError) as exc:
        parse_network(text)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


EMPTY = NetworkSpec(nodes=(), links=())


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("", EMPTY),
        ("\n\n", EMPTY),
        ("# one\n  # two\n#\n", EMPTY),
        ("node a\nnode 'b c'\n", NetworkSpec(nodes=("a", "b c"), links=())),
        ("node a\nlink a b\nnode b\n", "line 2: unknown node 'b'"),
        (
            "node 'a b'\nnode c\nnode d\nlink \"a b\" c\nlink d a\\ b\n",
            NetworkSpec(nodes=("a b", "c", "d"), links=(("a b", "c"), ("d", "a b"))),
        ),
    ],
    ids=["empty", "blank-lines", "comments-only", "nodes-only", "link-before-node", "three-spellings"],
)
def test_accept_and_explain_agree_on_corner_texts(text, expected):
    """The accept step gives the explain step's spec, or refuses a text
    that the explain step names a fault of."""
    if isinstance(expected, NetworkSpec):
        assert network._accept(text) == expected
        assert network._explain(text) == expected
    else:
        assert network._accept(text) is None
        with pytest.raises(NetworkParseError, match=f"^{expected}$"):
            network._explain(text)
        with pytest.raises(NetworkParseError, match=f"^{expected}$"):
            parse_network(text)


def test_comments_and_blank_lines_ignored():
    spec = parse_network("# header\n\nnode a  # trailing\nnode b\nlink a b\n")
    assert spec.nodes == ("a", "b")


def test_quoted_names_with_spaces():
    spec = parse_network('node "big node"\nnode b\nlink "big node" b\n')
    assert spec.nodes == ("big node", "b")


def test_format_parse_round_trip():
    spec = parse_network(field_network_text())
    assert parse_network(naive_network_text(spec)) == spec


def test_round_trip_quotes_awkward_names():
    spec = NetworkSpec(nodes=("a b", "c#d", "plain"), links=(("a b", "c#d"),))
    assert parse_network(naive_network_text(spec)) == spec


@pytest.mark.parametrize(
    "line, tokens",
    [
        ("a\x0bb c", ["a\x0bb", "c"]),  # \x0b is not whitespace
        ("a#b c", ["a"]),  # a comment may start inside a word
        ("'a#b' c", ["a#b", "c"]),
        ("'a\\\"b'", ['a\\"b']),  # single quotes are literal
        ('"a\\\"b\\\\c\\d"', ['a"b\\c\\d']),  # only \" and \\ escape
        ("a\\ b\\'c", ["a b'c"]),  # a backslash escapes outside quotes
        ("'St. Mary'\"'\"'s Field'", ["St. Mary's Field"]),  # pieces join
        ("'' x \"\"", ["", "x", ""]),
        ("  \t# only a comment", []),
    ],
)
def test_split_line_rules(line, tokens):
    assert _split_line(line) == tokens


def _split_outcome(split, line):
    try:
        return split(line)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(deadline=None, max_examples=1000)
@given(st.text(alphabet=list("'\"\\# \t\x0bab\r\n"), max_size=24))
@example("a\\")
@example('"a\\')
@example('"a\\"')
@example("'a\\")
def test_split_line_agrees_with_shlex(line):
    expected = _split_outcome(lambda text: shlex.split(text, comments=True), line)
    assert _split_outcome(_split_line, line) == expected


@pytest.mark.parametrize(
    "line, message",
    [("node 'a", "No closing quotation"), ('node "a\\', "No escaped character"), ("node a\\", "No escaped character")],
)
def test_malformed_line_names_the_shlex_error(line, message):
    with pytest.raises(NetworkParseError, match=f"line 2: unparsable line \\({message}\\)"):
        parse_network("node b\n" + line + "\n")


def _refuse(*args, **kwargs):
    raise AssertionError("a well-formed text reached shlex or the line-by-line reader")


def test_well_formed_lines_never_reach_shlex(monkeypatch):
    monkeypatch.setattr(shlex, "split", _refuse)
    monkeypatch.setattr(network, "_explain", _refuse)
    assert parse_network(field_network_text()).nodes[0] == "Field 1"
    g = build_c(600, 400, 500)
    labels = list(range(1, g.n + 1))
    random.Random(5).shuffle(labels)
    names = {v: (f"St. Mary's {v}" if v % 3 == 0 else f"Depot {v}") for v in labels}
    spec = NetworkSpec(
        nodes=tuple(names[v] for v in labels),
        links=tuple((names[u], names[v]) for u, v in sorted(g.edges)),
    )
    assert parse_network(naive_network_text(spec)) == spec


def test_first_line_splits_are_thread_safe():
    # Threads that split lines together must each get all of their tokens,
    # quote handling included.
    line = r"""node "a \"b\"" 'c d' e\ f  # note"""
    expected = ["node", 'a "b"', "c d", "e f"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            start = threading.Barrier(8)
            results = []

            def split():
                start.wait()
                results.append(_split_line(line))

            threads = [threading.Thread(target=split) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def reference_parse(text):
    """parse_network's directive rules over ``str.splitlines`` and
    ``shlex.split(line, comments=True)``."""
    nodes, links, linked = {}, [], set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(line, comments=True)
        except ValueError as exc:
            raise NetworkParseError(lineno, f"unparsable line ({exc})") from None
        if not tokens:
            continue
        directive, *args = tokens
        if directive == "node":
            if len(args) != 1:
                raise NetworkParseError(lineno, "node takes exactly one name")
            if not args[0]:
                raise NetworkParseError(lineno, "empty node name")
            if args[0] in nodes:
                raise NetworkParseError(lineno, f"duplicate node {args[0]!r}")
            nodes[args[0]] = None
        elif directive == "link":
            if len(args) != 2:
                raise NetworkParseError(lineno, "link takes exactly two names")
            a, b = args
            for name in args:
                if name not in nodes:
                    raise NetworkParseError(lineno, f"unknown node {name!r}")
            if a == b:
                raise NetworkParseError(lineno, f"self-link at {a!r}")
            if frozenset(args) in linked:
                raise NetworkParseError(lineno, f"duplicate link {a!r} -- {b!r}")
            linked.add(frozenset(args))
            links.append((a, b))
        else:
            raise NetworkParseError(lineno, f"unknown directive {directive!r}")
    return NetworkSpec(nodes=tuple(nodes), links=tuple(links))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except NetworkParseError as exc:
        return exc.line, str(exc)


# every str.splitlines boundary, both quotes, backslash, comment and blanks,
# and pieces of node and link lines
_TEXT_PIECES = ["\r\n", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
                "'", '"', "\\", "#", " ", "\t", "node ", "link ", "a", "b", "'a b'"]
# spellings of a few names, so duplicate nodes, unknown names, self-links and
# duplicate links are common; the last three are no name
_TEXT_NAMES = ["a", "'a'", "b", '"b"', "'a b'", "a\\ b", "a#", "c", "''", "'a", "a\\"]
_TEXT_NAME = st.sampled_from(_TEXT_NAMES)
_TEXT_LINE = st.one_of(
    st.builds("node {}".format, _TEXT_NAME),
    st.builds("link {} {}".format, _TEXT_NAME, _TEXT_NAME),
    st.lists(st.sampled_from(_TEXT_PIECES), max_size=10).map("".join),
)
_TEXT = st.lists(st.tuples(_TEXT_LINE, st.sampled_from(_TEXT_PIECES[:8])), max_size=10).map(
    lambda lines: "".join(line + end for line, end in lines)
)


@settings(deadline=None, max_examples=600)
@given(_TEXT)
@example("node a\nnode 'b'\nlink a b\nlink \"b\" 'a'\n")
def test_parse_agrees_with_a_shlex_reference(text):
    assert _parse_outcome(parse_network, text) == _parse_outcome(reference_parse, text)


def _spell(name, style):
    """A word that the tokenizer reads as ``name``."""
    if style == "bare":
        return "".join("\\" + c if c in " \t'\"\\#" else c for c in name)
    if style == "single":
        return "'" + name.replace("'", "'\\''") + "'"
    if style == "double":
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return "".join("\\" + c for c in name)  # every character escaped


@st.composite
def interleaved_network_texts(draw):
    """A valid network text and its spec.  Each link line comes after the
    node lines of both its names, not always right after; each name is spelt
    anew wherever it appears, as two halves spelt each their own way; blank
    lines, comments and line ends vary."""
    nodes = draw(st.lists(st.text(alphabet="ab '\"\\#\té", min_size=1, max_size=5), max_size=6, unique=True))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    after = [[] for _ in nodes]  # the link lines that follow each node line
    for a, b in links:
        if draw(st.booleans()):
            a, b = b, a
        last = max(nodes.index(a), nodes.index(b))
        after[draw(st.integers(last, len(nodes) - 1))].append((a, b))

    styles = st.sampled_from(["bare", "single", "double", "escaped"])
    blanks = st.sampled_from(["", " ", "\t", "  "])

    def line(*words):
        half = [draw(st.integers(0, len(w))) for w in words[1:]]
        names = [_spell(w[:k], draw(styles)) + _spell(w[k:], draw(styles)) for w, k in zip(words[1:], half)]
        gap = draw(st.sampled_from([" ", "\t", " \t "]))
        comment = draw(st.sampled_from(["", " # note", "\t#'unclosed \\"]))
        filler = draw(st.sampled_from(["", "\n", "# a comment\n", " \t\r\n"]))
        end = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"]))
        return filler + draw(blanks) + gap.join([words[0], *names]) + draw(blanks) + comment + end

    text, spec_links = "", []
    for name, later in zip(nodes, after):
        text += line("node", name)
        for a, b in later:
            text += line("link", a, b)
            spec_links.append((a, b))
    return text, NetworkSpec(nodes=tuple(nodes), links=tuple(spec_links))


@settings(deadline=None, max_examples=300)
@given(interleaved_network_texts())
@example(("node a\nlink a b\nnode b\n", (2, "line 2: unknown node 'b'")))
def test_parse_accepts_interleaved_node_and_link_lines(case):
    text, expected = case
    assert _parse_outcome(reference_parse, text) == expected
    if isinstance(expected, NetworkSpec):
        # a valid text never reaches the line-by-line reader
        with mock.patch.object(network, "_explain", _refuse):
            assert parse_network(text) == expected
    else:
        assert _parse_outcome(parse_network, text) == expected


_PARSE_IN_CHILD = (
    "import sys\n"
    "from thetadim import NetworkParseError, parse_network\n"
    "try:\n"
    "    print(repr(parse_network(sys.stdin.buffer.read().decode())))\n"
    "except NetworkParseError as exc:\n"
    "    print(exc)\n"
)


def _parse_in_child(text):
    """``(stdout, stderr)`` of a child process that parses ``text`` and
    prints the spec's repr or the error.  The child is killed at a 5 s time
    bound, so a pattern that backtracks super-linearly fails the calling test
    instead of hanging it."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _PARSE_IN_CHILD],
        input=text, env=env, capture_output=True, text=True, timeout=5,
    )
    return proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "text",
    [
        "node " + "a" * 5000 + "'",
        "node a\nlink a " + "b" * 5000 + '"',
        "a" * 5000 + "\\",
        # valid, but every line is refused by the pattern and read by the tokenizer
        "".join(f'"node" n{i}\n' for i in range(20_000)),
    ],
    ids=["open-quote", "open-double-quote", "trailing-backslash", "quoted-directives"],
)
def test_long_lines_agree_with_a_shlex_reference(text):
    expected = _parse_outcome(reference_parse, text)
    printed = expected[1] if isinstance(expected, tuple) else repr(expected)
    assert _parse_in_child(text) == (f"{printed}\n", "")


# Each text is one line that no pattern of linear cost could take long on.
@pytest.mark.parametrize(
    "text, message",
    [
        ("a" * 100_000 + "'", "unparsable line (No closing quotation)"),
        ("'" * 200_001, "unparsable line (No closing quotation)"),
        ("\\" * 200_001, "unparsable line (No escaped character)"),
        ("node " + "a " * 100_000, "node takes exactly one name"),
        ("a" * 1_000_000 + "'", "unparsable line (No closing quotation)"),
    ],
    ids=["long-word-open-quote", "quotes", "backslashes", "many-words", "million-char-word"],
)
def test_parse_cost_is_bounded(text, message):
    assert _parse_in_child(text) == (f"line 1: {message}\n", "")


@st.composite
def valid_network_specs(draw):
    """Specs parse_network could return, over arbitrary text names that a
    line can carry: not empty, and without a line break."""
    name = st.text(min_size=1, max_size=6).filter(lambda text: text.splitlines() == [text])
    nodes = draw(st.lists(name, max_size=6, unique=True))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(links), max_size=len(links)))
    return NetworkSpec(
        nodes=tuple(nodes),
        links=tuple((b, a) if flip else (a, b) for (a, b), flip in zip(links, flips)),
    )


@st.composite
def any_network_specs(draw):
    """Arbitrary node and link lists over a few names, so that duplicate
    nodes, undeclared and repeated names in links are common."""
    names = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4))
    nodes = draw(st.lists(st.sampled_from(names), max_size=5))
    links = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=5))
    return NetworkSpec(nodes=tuple(nodes), links=tuple(links))


@settings(deadline=None, max_examples=400)
@given(valid_network_specs())
@example(NetworkSpec(nodes=("a b", "c#d", "St. Mary's"), links=(("c#d", "a b"),)))
def test_naive_text_round_trips_every_valid_spec(spec):
    assert parse_network(naive_network_text(spec)) == spec


def test_graph_build_reports_disconnection():
    with pytest.raises(ValueError, match="disconnected"):
        network_graph(NetworkSpec(nodes=("a", "b"), links=()))


@pytest.mark.parametrize(
    ("spec", "message"),
    [
        (NetworkSpec(nodes=("a", "b", "a"), links=(("a", "b"),)), "duplicate node 'a'"),
        (NetworkSpec(nodes=("a", "c"), links=(("a", "c"), ("a", "b"))), "unknown node 'b'"),
        (NetworkSpec(nodes=("a", "b"), links=(("a", "b"), ("b", "b"))), "self-link at 'b'"),
        (NetworkSpec(nodes=("a", "b"), links=(("a", "b"), ("a", "b"))), "duplicate link 'a' -- 'b'"),
        (NetworkSpec(nodes=("a", "b"), links=(("a", "b"), ("b", "a"))), "duplicate link 'b' -- 'a'"),
        # the first faulty link is named, as parse_network names it
        (NetworkSpec(nodes=("a", "b"), links=(("a", "a"), ("a", "c"))), "self-link at 'a'"),
        # the first node declared twice, in declaration order
        (NetworkSpec(nodes=("a", "b", "b", "a"), links=(("a", "b"),)), "duplicate node 'b'"),
    ],
    ids=["duplicate-node", "undeclared-node", "self-link", "duplicate-link", "reversed-duplicate-link",
         "first-fault", "first-duplicate-node"],
)
def test_graph_build_names_a_bad_spec(spec, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        network_graph(spec)


@settings(deadline=None, max_examples=400)
@given(st.one_of(valid_network_specs(), any_network_specs()))
@example(NetworkSpec(nodes=("1", "0", "0", "1"), links=()))
@example(NetworkSpec(nodes=("a", "b"), links=(("a", "b"), ("b", "a"))))
def test_graph_build_and_parse_name_the_same_fault(spec):
    """network_graph and parse_network of the spec's text name the same
    first fault, and network_graph refuses a spec whose text parses back to
    it only when the network is disconnected."""
    names = {*spec.nodes, *(name for link in spec.links for name in link)}
    if not spec.nodes or any(name.splitlines() != [name] for name in names):
        return  # no graph to build, or a name that text cannot carry
    try:
        parsed = parse_network(naive_network_text(spec))
    except NetworkParseError as exc:
        with pytest.raises(ValueError) as graph_exc:
            network_graph(spec)
        assert str(exc) == f"line {exc.line}: {graph_exc.value}"
        return
    assert parsed == spec
    try:
        network_graph(spec)
    except ValueError as exc:
        assert str(exc) == "network graph is disconnected"


@pytest.mark.parametrize(
    "spec",
    [
        NetworkSpec(nodes=("a", "b", "c", "d"), links=(("a", "b"), ("c", "d"))),
        # a theta component beside a separate cycle: right degrees, but the
        # hub-to-hub chains miss the cycle's vertices
        NetworkSpec(
            nodes=tuple("abcdefgh"),
            links=(("a", "b"), ("b", "c"), ("a", "d"), ("d", "c"), ("a", "e"), ("e", "c"),
                   ("f", "g"), ("g", "h"), ("h", "f")),
        ),
    ],
    ids=["two-paths", "theta-and-cycle"],
)
def test_landmarks_refuse_a_disconnected_network(spec):
    for call in (network_graph, assign_landmarks):
        with pytest.raises(ValueError, match="^network graph is disconnected$"):
            call(spec)


def test_graph_build_rejects_empty():
    with pytest.raises(ValueError):
        network_graph(NetworkSpec(nodes=(), links=()))


def test_field_fixture_landmarks():
    table = assign_landmarks(parse_network(field_network_text()))
    assert table.landmarks == ("Field 1", "Field 4")
    assert table.method == "closed-form (T3-P1)"
    assert len(set(table.codes.values())) == 12
    assert table.codes["Field 1"] == (0, 3)
    assert table.codes["Field 4"] == (3, 0)


def test_path_network_gets_single_end_landmark():
    table = assign_landmarks(path_spec(6))
    assert table.method == "oracle"
    assert table.landmarks == ("n1",)
    assert [table.codes[f"n{i}"] for i in range(1, 7)] == [(d,) for d in range(6)]


def test_complete_bipartite_network_needs_three_landmarks():
    # K_{2,3} happens to be theta-shaped, so the fast path serves it; its
    # landmark count still matches the oracle's n-2
    spec = NetworkSpec(
        nodes=("u1", "u2", "w1", "w2", "w3"),
        links=tuple((u, w) for u in ("u1", "u2") for w in ("w1", "w2", "w3")),
    )
    table = assign_landmarks(spec)
    assert len(table.landmarks) == 3
    assert table.method == "closed-form (T4-P1)"
    assert metric_dimension_oracle(network_graph(spec)).dimension == 3


def test_closed_form_and_oracle_agree_on_theta_networks():
    from thetadim import build_c, valid_triples

    for p, q, r in valid_triples(9):
        g = build_c(p, q, r)
        names = tuple(f"v{i}" for i in range(1, g.n + 1))
        spec = NetworkSpec(
            nodes=names,
            links=tuple((names[u - 1], names[v - 1]) for u, v in sorted(g.edges)),
        )
        table = assign_landmarks(spec)
        assert table.method.startswith("closed-form")
        assert len(table.landmarks) == metric_dimension_oracle(g).dimension


def test_oversized_non_theta_network_rejected(bfs_sources):
    # Only a path has dimension 1, so the search of a 3000-cycle starts at
    # size 2, which costs C(3000, 2) * 3000 and is refused after vertex 1's
    # row, the only one read.
    names = tuple(f"n{i}" for i in range(3000))
    spec = NetworkSpec(nodes=names, links=tuple(zip(names, names[1:] + names[:1])))
    with pytest.raises(ValueError, match="oracle size 2 on 3000 vertices"):
        assign_landmarks(spec)
    assert bfs_sources == [1]
    assert assign_landmarks(path_spec(30)).landmarks == ("n1",)


def test_theta_network_runs_bfs_only_from_its_landmarks(bfs_sources):
    g = build_c(40, 7, 25)
    labels = list(range(1, g.n + 1))
    random.Random(5).shuffle(labels)
    spec = NetworkSpec(
        nodes=tuple(f"v{v}" for v in labels),
        links=tuple((f"v{u}", f"v{v}") for u, v in sorted(g.edges)),
    )
    table = assign_landmarks(spec)
    assert table.method.startswith("closed-form")
    index = {name: v for v, name in enumerate(spec.nodes, start=1)}
    assert bfs_sources == [index[name] for name in table.landmarks]


def test_theta_landmark_codes_come_from_landmark_rows_only(no_matrix):
    g = build_c(500, 500, 500)
    labels = list(range(1, g.n + 1))
    random.Random(4).shuffle(labels)
    spec = NetworkSpec(
        nodes=tuple(f"v{v}" for v in labels),
        links=tuple((f"v{u}", f"v{v}") for u, v in sorted(g.edges)),
    )
    table = assign_landmarks(spec)
    assert table.method.startswith("closed-form")
    shuffled = network_graph(spec)
    index = {name: v for v, name in enumerate(spec.nodes, start=1)}
    rows = [bfs_distances(shuffled, index[name]) for name in table.landmarks]
    assert table.codes == {name: tuple(row[v - 1] for row in rows) for name, v in index.items()}
