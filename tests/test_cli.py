"""Command-line surface: golden output lines and exit codes."""

import io
import itertools
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadim import build_c, closed_form_basis, field_network_text
from thetadim import cli
from thetadim.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_prints_dimension_and_tag(capsys):
    code, out, _ = run(capsys, "dim", "3", "7", "3")
    assert code == 0
    assert out == "3 T4-P1\n"


def test_dim_with_oracle(capsys):
    code, out, _ = run(capsys, "dim", "3", "7", "3", "--oracle")
    assert code == 0
    assert out == "3 T4-P1\noracle 3\n"


def test_dim_with_oracle_above_24_vertices(capsys):
    # n = 38: the oracle's work budget, not a vertex count, bounds the search.
    code, out, _ = run(capsys, "dim", "12", "14", "12", "--oracle")
    assert code == 0
    assert out == "3 T4-P1\noracle 3\n"


def test_basis_line(capsys):
    code, out, _ = run(capsys, "basis", "5", "3", "4")
    assert code == 0
    assert out == "1,4 T3-P1\n"


def test_build_emits_edge_list(capsys):
    code, out, _ = run(capsys, "build", "1", "3", "1")
    assert code == 0
    assert out.splitlines() == ["1 2", "1 4", "2 3", "2 5", "3 4", "4 5"]


def test_check_reports_unresolved_pair(capsys):
    code, out, _ = run(capsys, "check", "3", "7", "3", "--set", "2,6")
    assert code == 1
    assert out == "unresolved 9 11\n"


def test_check_accepts_minimal_basis(capsys):
    code, out, _ = run(capsys, "check", "3", "7", "3", "--set", "1,2,6")
    assert code == 0
    assert out == "resolving minimal\n"


def test_check_flags_redundant_set(capsys):
    code, out, _ = run(capsys, "check", "3", "7", "3", "--set", "1,2,6,7")
    assert code == 0
    assert out == "resolving non-minimal\n"


def test_check_domain_error_on_bad_vertex(capsys):
    code, _, err = run(capsys, "check", "3", "7", "3", "--set", "1,99")
    assert code == 1
    assert "99" in err


def test_invalid_params_exit_one(capsys):
    code, _, err = run(capsys, "dim", "0", "2", "5")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_two(capsys):
    assert run(capsys, "dim", "3", "7")[0] == 2
    assert run(capsys, "check", "3", "7", "3", "--set", "one,two")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_sweep_empty_range(capsys):
    code, out, _ = run(capsys, "sweep", "--max-n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["records"] == []
    assert payload["summary"]["records"] == 0


def test_sweep_range_above_limit_is_refused(capsys):
    code, out, err = run(capsys, "sweep", "--max-n", str(cli.MAX_SWEEP_N + 1))
    assert (code, out) == (1, "")
    assert err == f"error: max_n {cli.MAX_SWEEP_N + 1} exceeds the sweep limit {cli.MAX_SWEEP_N}\n"


@pytest.mark.parametrize("target", [".", "missing/report.json"])
def test_sweep_unwritable_out_exit_two_before_sweeping(tmp_path, monkeypatch, capsys, target):
    def refuse(max_n):
        raise AssertionError("swept before opening --out")
    monkeypatch.setattr(cli, "sweep", refuse)
    code, out, err = run(capsys, "sweep", "--max-n", "5", "--out", str(tmp_path / target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(tmp_path) in err


def test_sweep_csv_to_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "sweep", "--max-n", "5", "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[0].startswith("p,q,r,n,case")
    assert len(lines) > 1


def test_landmarks_on_field_fixture(tmp_path, capsys):
    net = tmp_path / "fields.net"
    net.write_text(field_network_text())
    code, out, _ = run(capsys, "landmarks", str(net))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method\tclosed-form (T3-P1)"
    assert lines[1] == "landmarks\tField 1\tField 4"
    assert lines[2] == "Field 1\t0,3"
    assert len(lines) == 2 + 12


def test_landmarks_reads_past_a_byte_order_mark(tmp_path, capsys):
    net = tmp_path / "bom.net"
    net.write_text("node a\nnode b\nlink a b\n", encoding="utf-8-sig")
    assert net.read_bytes().startswith(b"\xef\xbb\xbfnode a")
    code, out, err = run(capsys, "landmarks", str(net))
    assert (code, err) == (0, "")
    assert out == "method\toracle\nlandmarks\ta\na\t0\nb\t1\n"


def test_landmarks_parse_error_exit_two(tmp_path, capsys):
    net = tmp_path / "bad.net"
    net.write_text("node a\nlnik a b\n")
    code, _, err = run(capsys, "landmarks", str(net))
    assert code == 2
    assert "line 2" in err


def test_landmarks_missing_file_exit_two(capsys):
    assert run(capsys, "landmarks", "/nonexistent/net.txt")[0] == 2


def test_landmarks_disconnected_exit_one(tmp_path, capsys):
    net = tmp_path / "split.net"
    net.write_text("node a\nnode b\n")
    code, _, err = run(capsys, "landmarks", str(net))
    assert code == 1
    assert "disconnected" in err


def test_landmarks_non_utf8_file_exit_two(tmp_path, capsys):
    net = tmp_path / "latin1.net"
    net.write_bytes(b'node "F\xff"\n')
    code, out, err = run(capsys, "landmarks", str(net))
    assert code == 2 and out == ""
    assert err == f"error: {net}: not UTF-8 text (invalid start byte at byte 7)\n"


def test_landmarks_non_utf8_offset_counts_the_byte_order_mark(tmp_path, capsys):
    net = tmp_path / "bom.net"
    net.write_bytes(b"\xef\xbb\xbfnode a\n\xff")
    code, out, err = run(capsys, "landmarks", str(net))
    assert (code, out) == (2, "")
    assert err == f"error: {net}: not UTF-8 text (invalid start byte at byte 10)\n"


def _padded_network(size):
    """A two-node network text of exactly ``size`` bytes, padded by a comment."""
    head = "node a\nnode b\nlink a b\n#"
    return head + "x" * (size - len(head) - 1) + "\n"


def test_landmarks_parses_a_file_at_the_size_limit(tmp_path, capsys):
    net = tmp_path / "limit.net"
    net.write_text(_padded_network(cli.MAX_NETWORK_BYTES))
    assert net.stat().st_size == cli.MAX_NETWORK_BYTES
    code, out, err = run(capsys, "landmarks", str(net))
    assert (code, err) == (0, "")
    assert out == "method\toracle\nlandmarks\ta\na\t0\nb\t1\n"


def test_landmarks_refuses_a_file_over_the_size_limit_unparsed(tmp_path, capsys, monkeypatch):
    def refuse(text):
        raise AssertionError(f"parsed {len(text)} characters")
    monkeypatch.setattr("thetadim.network.parse_network", refuse)
    net = tmp_path / "over.net"
    net.write_text(_padded_network(cli.MAX_NETWORK_BYTES + 1))
    code, out, err = run(capsys, "landmarks", str(net))
    assert (code, out) == (1, "")
    assert err == f"error: network file {net} exceeds the size limit {cli.MAX_NETWORK_BYTES} bytes\n"


def _theta_network(p, q, r):
    """The network text of ``C_{p,q,r}``, one node per vertex."""
    g = build_c(p, q, r)
    return "".join(f"node v{v}\n" for v in range(1, g.n + 1)) + "".join(f"link v{u} v{v}\n" for u, v in g.edges)


def test_landmarks_codes_a_network_at_the_order_limit(tmp_path, capsys):
    net = tmp_path / "limit.net"
    net.write_text(_theta_network(1000, 998, 2))
    code, out, err = run(capsys, "landmarks", str(net))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "method\tclosed-form (T3-P1)"
    assert len(lines) == 2 + cli.MAX_ORDER


def test_landmarks_refuses_a_network_over_the_order_limit_uncoded(tmp_path, capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError(f"coded {len(spec.nodes)} nodes")
    monkeypatch.setattr("thetadim.network.assign_landmarks", refuse)
    net = tmp_path / "over.net"
    net.write_text(_theta_network(1000, 999, 2))
    code, out, err = run(capsys, "landmarks", str(net))
    assert (code, out) == (1, "")
    assert err == f"error: network order {cli.MAX_ORDER + 1} exceeds the size limit {cli.MAX_ORDER}\n"


# two spellings of each node name: the node line uses the first, links either
_FUZZ_SPELLINGS = [("a", "'a'"), ("'c d'", '"c d"'), ('"e\\"f"', "'e\"f'"), ("g\\ h", "'g h'"),
                   ("'#'", "\\#"), ("i#j", "i")]
_FUZZ_NOISE = st.lists(
    st.sampled_from(["node", "link", "a", " ", "\t", "\x0b", "'", '"', "\\", "#"]), max_size=12
).map("".join)
_FUZZ_LONG = st.sampled_from(["node {}", "link a {}", "node '{}", "#{}"]).flatmap(
    lambda form: st.integers(1, 5000).map(lambda k: form.format("x" * k))
)


@st.composite
def _fuzz_network_text(draw):
    """Node lines, maybe a path of links through them, then links, quoting
    noise and long lines, each line ended by LF, CRLF or CR."""
    nodes = draw(st.lists(st.sampled_from(_FUZZ_SPELLINGS), unique=True, min_size=2, max_size=5))
    lines = [f"node {first}" for first, _ in nodes]
    if draw(st.booleans()):  # a path through all nodes, so some networks are connected
        lines += [f"link {u[1]} {v[0]}" for u, v in zip(nodes, nodes[1:])]
    link_end = st.sampled_from(nodes).flatmap(st.sampled_from)
    link = st.builds("link {} {}".format, link_end, link_end)
    lines += draw(st.lists(st.one_of(link, link, link, _FUZZ_NOISE, _FUZZ_LONG), max_size=10))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)


@settings(deadline=None, max_examples=150)
@given(_fuzz_network_text())
def test_landmarks_fuzz_ends_in_a_documented_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "net.txt"
    path.write_text(text, encoding="utf-8", newline="")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["landmarks", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


@pytest.mark.parametrize("cap", ["0", "-1", "5"])
def test_oracle_cap_option_is_a_usage_error(tmp_path, capsys, cap):
    # K_4 is no theta graph, so landmarks would need the oracle.
    net = tmp_path / "k4.net"
    net.write_text(
        "".join(f"node {v}\n" for v in "abcd")
        + "".join(f"link {a} {b}\n" for a, b in itertools.combinations("abcd", 2))
    )
    for argv in (["dim", "3", "7", "3", "--oracle"], ["sweep", "--max-n", "5"], ["landmarks", str(net)]):
        code, out, err = run(capsys, *argv, "--oracle-cap", cap)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: --oracle-cap" in err


def test_cli_start_up_imports_only_the_standard_library():
    # Every module that importing the CLI loads is thetadim's own or from the
    # standard library; modules the interpreter loaded before (site hooks and
    # the like) are not the CLI's.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    check = (
        "import sys; before = set(sys.modules); import thetadim.cli\n"
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "extra = sorted(loaded - sys.stdlib_module_names - {'thetadim'})\n"
        "assert 'thetadim' in loaded and not extra, extra"
    )
    proc = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_start_up_loads_neither_the_network_parser_nor_the_report_writers():
    # Only `landmarks` parses a network and only `sweep` writes a report, so
    # importing the CLI leaves their modules unloaded until a command needs them.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    check = (
        "import sys; import thetadim.cli\n"
        "eager = sorted({'thetadim.network', 'json', 'csv'} & set(sys.modules))\n"
        "assert not eager, eager\n"
        "assert thetadim.cli.main(['landmarks', sys.argv[1]]) == 0\n"
        "assert 'thetadim.network' in sys.modules\n"
    )
    field = src / "thetadim" / "data" / "field_network.txt"
    proc = subprocess.run([sys.executable, "-c", check, str(field)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("method\tclosed-form (T3-P1)\n")


@pytest.mark.parametrize("argv", [
    ("build", "900", "900", "100"),
    ("dim", "3", "7", "3"),
    ("basis", "3", "7", "3"),
    ("check", "3", "7", "3", "--set", "1,2,6"),
    ("landmarks", str(Path(cli.__file__).parent / "data" / "field_network.txt")),
    ("sweep", "--max-n", "9"),
], ids=lambda argv: argv[0])
def test_every_command_exits_two_into_a_closed_pipe(argv):
    # The read end is closed before the child starts, so its first write to
    # stdout fails.  -u hands every print to the pipe while the command runs;
    # block-buffered, a few bytes would reach it only at interpreter exit,
    # after main has returned (ROADMAP, "Small open points").
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-u", "-m", "thetadim.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(r"error: [^\n]*Broken pipe\n", proc.stderr), proc.stderr


@pytest.fixture
def no_build(monkeypatch):
    """Fail the test if the command builds a graph at all."""
    def refuse(p, q, r):
        raise AssertionError(f"built C_{{{p},{q},{r}}}")
    monkeypatch.setattr(cli, "build_c", refuse)


@pytest.mark.parametrize("argv, order", [
    (("build", "1000000", "5", "1"), 1000006),
    (("check", "1000", "1000", "2000", "--set", "1,2"), 4000),
])
def test_order_above_size_limit_is_refused_unbuilt(capsys, no_build, argv, order):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: graph order {order} exceeds the size limit {cli.MAX_ORDER}\n"


def test_order_at_size_limit_is_built(capsys):
    code, out, _ = run(capsys, "build", "1000", "998", "2")
    assert code == 0
    assert len(out.splitlines()) == cli.MAX_ORDER + 1


def test_dim_oracle_refuses_oversized_graph_unbuilt(capsys, no_build):
    code, out, err = run(capsys, "dim", "1000000", "5", "1", "--oracle")
    assert (code, out) == (1, "2 T3-P3\n")
    assert err == f"error: graph order 1000006 exceeds the size limit {cli.MAX_ORDER}\n"


@pytest.mark.parametrize("landmarks, expected", [
    ((1, 2), (1, "unresolved 504 1501\n")),
    (closed_form_basis(1000, 998, 2).basis, (0, "resolving minimal\n")),
])
def test_check_at_size_limit_reads_only_landmark_rows(capsys, no_matrix, landmarks, expected):
    code, out, _ = run(capsys, "check", "1000", "998", "2", "--set", ",".join(map(str, landmarks)))
    assert (code, out) == expected
