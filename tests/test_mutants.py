"""The mutation ledger: each row breaks the library in one place, in a copy
of ``src/``, and names the tests that must catch it.

A row gives a file under ``src/``, an exact old text, its replacement and
the tests that must fail.  The named tests run in a subprocess against the
copy, with a fixed hypothesis seed; pytest must exit with code 1, so a
failing test counts and a collection or usage error does not.  A row whose
old text does not occur exactly once fails, so a refactor that moves the
text must update or retire the row.  Slow; run with ``pytest -m slow``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: (file under src/, old text, replacement, tests that must fail)
MUTANTS = [
    (
        "thetadim/sweep.py",
        "basis_minimal = basis_ok and (len(rows) == 2 or _minimal(rows, n))",
        "basis_minimal = basis_ok",
        ["tests/test_sweep.py::test_a_resolving_basis_above_the_dimension_is_a_mismatch"],
    ),
    (
        "thetadim/sweep.py",
        "below = len(images) if basis_ok else n + 1",
        "below = len(images)",
        ["tests/test_sweep.py::test_a_basis_that_does_not_resolve_gets_the_full_oracle"],
    ),
    (
        "thetadim/sweep.py",
        "basis=tuple(sorted(map(swap, record.basis)))",
        "basis=tuple(map(swap, record.basis))",
        ["tests/test_sweep.py::test_records_are_reproducible[7]"],
    ),
    (
        "thetadim/sweep.py",
        'key=operator.attrgetter("vertex")',
        "key=lambda m: 0",
        ["tests/test_sweep.py::test_records_are_reproducible[32]"],
    ),
    (
        "thetadim/sweep.py",
        "if m.formula is not None",
        "if m.formula",
        ["tests/test_sweep.py::test_csv_report_is_the_standard_writers_text"],
    ),
    (
        "thetadim/theta.py",
        "x, *range(m, m + q - 2), x + y + 1",
        "x + y + 1, *range(m, m + q - 2), x",
        ["tests/test_sweep.py::test_sweep_reads_each_triples_own_bfs_rows"],
    ),
    (
        "thetadim/graphs.py",
        "nbrs[v][u] = None",
        "pass",
        ["tests/test_graphs.py::test_new_graph_builds_the_adjacency_of_its_edge_list"],
    ),
    (
        "thetadim/graphs.py",
        "value = self[key] = self.compute(key)",
        "value = self.compute(key)",
        ["tests/test_resolve.py::test_a_size_without_a_witness_computes_only_the_rows_it_tests"],
    ),
    (
        "thetadim/theta.py",
        "range(p + q + 1, p + q + r + 1)",
        "reversed(range(p + q + 1, p + q + r + 1))",
        ["tests/test_theta.py::test_route_lemma_gives_every_distance[24]"],
    ),
    (
        "thetadim/theta.py",
        "2 + sum(len(c) for c in chains) != n",
        "False",
        ["tests/test_theta.py::test_detect_rejects_disconnected"],
    ),
    (
        "thetadim/theta.py",
        " or degrees.count(2) != n - 2",
        "",
        ["tests/test_theta.py::test_detect_rejects_degrees_outside_two_and_three"],
    ),
    (
        "thetadim/closed_form.py",
        '("T1-P3", "T2-P3", "T3-P3")',
        '("T1-P3", "T3-P3")',
        ["tests/test_acceptance.py::test_criterion_5_table_fidelity_per_case"],
    ),
    (
        "thetadim/__init__.py",
        " and not isinstance(value, types.ModuleType)",
        "",
        ["tests/test_package.py::test_every_export_is_defined_by_a_thetadim_module"],
    ),
    (
        "thetadim/resolve.py",
        " and sum(degrees) == 2 * n - 2",
        "",
        ["tests/test_resolve.py::test_only_paths_test_size_one"],
    ),
    (
        "thetadim/resolve.py",
        "_check_level_cost(k, n)",
        "_check_level_cost(k, n); k > first and list(map(row_of, vertices))",
        ["tests/test_resolve.py::test_a_size_without_a_witness_computes_only_the_rows_it_tests"],
    ),
    (
        "thetadim/network.py",
        " or sum(map(len, g.adjacency)) != 2 * len(spec.links)",
        "",
        ["tests/test_network.py::test_graph_build_names_a_bad_spec"],
    ),
    (
        "thetadim/network.py",
        '_DOUBLE_ESCAPE.sub(r"\\1", double) if "\\\\" in double else double',
        "double",
        ["tests/test_network.py::test_split_line_rules"],
    ),
    (
        "thetadim/network.py",
        "or len(linked) != len(a)",
        "or False",
        ["tests/test_network.py::test_parse_rejects_malformed[node a\\nnode b\\nlink a b\\nlink a b\\n]"],
    ),
    (
        "thetadim/network.py",
        "if not args[0]:",
        "if False:",
        ["tests/test_network.py::test_parse_rejects_malformed[node ''\\n]"],
    ),
    (
        "thetadim/cli.py",
        'except OSError as exc:\n        print(f"error: {exc}", file=sys.stderr)\n        return 2\n    ',
        "",
        ["tests/test_cli.py::test_every_command_exits_two_into_a_closed_pipe",
         "tests/test_cli.py::test_landmarks_missing_file_exit_two"],
    ),
]

pytestmark = pytest.mark.slow


@pytest.mark.parametrize(
    "path, old, new, tests", MUTANTS, ids=[f"{path}:{new}" for path, _, new, _ in MUTANTS]
)
def test_mutant_fails_its_tests(tmp_path, path, old, new, tests):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = src / path
    text = target.read_text()
    assert text.count(old) == 1, f"{old!r} occurs {text.count(old)} times in {path}"
    target.write_text(text.replace(old, new))
    # The subprocess runs in tmp_path, so its hypothesis database lands
    # there, and it writes no cache or bytecode into the repository.
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
         *(str(ROOT / test) for test in tests)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
