"""CLI behaviour: dispatch, formats, exit codes, determinism."""

import copy
import fnmatch
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import transit
from transit import cli, polymatrix
from transit.cli import main
from transit.fixtures import fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prices_fixture_by_name(capsys):
    code, out, _ = run_cli(capsys, "prices", "matrix2", "--ne")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["pota"]["exact"] == "0"
    assert doc["results"]["poa"]["exact"] == "1"
    assert doc["provenance"]["fixture"] == "matrix2"


def test_prices_by_path(capsys):
    code, out, _ = run_cli(capsys, "prices", str(fixture_path("matrix6")), "--ne")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["pota"]["exact"] == "7/16"


def test_prices_of_the_parallel_links_fixture(capsys):
    for game in ("parallel-links-4", str(fixture_path("parallel-links-4"))):
        code, out, _ = run_cli(capsys, "prices", game, "--ne")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["convention"] == "min"
        assert results["poa"]["exact"] == "1"
        assert [v["exact"] for v in results["m_pota"]] == ["1", "2", "5/2", "4"]


def test_prices_eps_flag(capsys):
    code, out, _ = run_cli(capsys, "prices", "matrix6", "--eps", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["solutions"].startswith("eps-NE")


def test_csv_projection(capsys):
    code, out, _ = run_cli(capsys, "prices", "matrix2", "--ne", "--format", "csv")
    assert code == 0
    assert out.startswith("section,name,exact,decimal")
    assert any(line.startswith("pota,pota,0,") for line in out.splitlines())


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "prices", "matrix6", "--ne")
    _, out2, _ = run_cli(capsys, "prices", "matrix6", "--ne")
    assert out1 == out2


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "matrix6", "--ne")
    assert code == 0
    doc = json.loads(out)
    names = {row["name"] for row in doc["results"]["rows"]}
    assert "player-dependence-anarchy" in names
    assert doc["results"]["two_player_condition"] is not None


def test_degree_profile_and_saturate(capsys, tmp_path):
    sol = tmp_path / "sol.json"
    sol.write_text(
        json.dumps(
            {
                "game": str(fixture_path("matrix2")),
                "label": "pure-NE",
                "members": [[0, 0], [1, 1]],
            }
        )
    )
    code, out, _ = run_cli(capsys, "degree", "matrix2", str(sol), "--profile", "0,1")
    assert code == 0
    assert json.loads(out)["results"]["degree"] == 2
    code, out, _ = run_cli(capsys, "degree", "matrix2", str(sol), "--saturate")
    assert code == 0
    assert json.loads(out)["results"]["m"] == 2
    code, out, _ = run_cli(
        capsys, "degree", "matrix2", str(sol), "--profile", "1", "--greedy"
    )
    assert code == 0
    assert json.loads(out)["results"]["degree"] == 2


def test_degree_saturate_over_the_profile_cap_exits_5(capsys, monkeypatch, tmp_path):
    # a box lies inside its game, so the 2 x 2 game is refused at load under
    # a cap of 3, before any degree map
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"game": str(fixture_path("matrix2")),
                               "label": "pure-NE", "members": [[0, 0], [1, 1]]}))
    monkeypatch.setenv("TRANSIT_PROFILE_CAP", "3")
    code, out, err = run_cli(capsys, "degree", "matrix2", str(sol), "--saturate")
    assert (code, out) == (5, "")
    assert err == ("error: 4 profiles exceed the cap 3; "
                   "raise TRANSIT_PROFILE_CAP to force enumeration\n")


def test_routing_analyze(capsys):
    code, out, _ = run_cli(capsys, "routing", "analyze", "fig1-3")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["pota"] == pytest.approx(3.0, rel=1e-6)
    assert doc["results"]["pots"] == pytest.approx(1.0, rel=1e-6)


def test_graph_commands(capsys):
    code, out, _ = run_cli(
        capsys, "graph", "check", "star-5", "--coloring", "1,1,1,2,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["stable_exact"] is False  # strict variant
    code, out, _ = run_cli(
        capsys, "graph", "check", "star-5", "--coloring", "1,1,1,2,2",
        "--stable", "weak",
    )
    assert json.loads(out)["results"]["stable_exact"] is True
    code, out, _ = run_cli(capsys, "graph", "construct", "cycle-6",
                           "--topology", "cycle")
    assert code == 0
    assert json.loads(out)["results"]["exists"] is True
    code, out, _ = run_cli(capsys, "graph", "bounds", "cycle-6")
    assert code == 0
    doc = json.loads(out)
    # runs of exactly two same-coloured nodes only tile cycles whose length
    # is a multiple of four, so the six-cycle's worst equilibrium keeps 2/3;
    # the alternating stable transition still drives posta to the 0 floor
    assert doc["results"]["poa"]["exact"] == "2/3"
    assert doc["results"]["posta"]["exact"] == "0"


@pytest.mark.parametrize("n, cap", [(8, None), (6, "1000")])
def test_theorem2_over_the_profile_cap_exits_5_at_once(capsys, monkeypatch, n, cap):
    # 8**8 profiles pass the default cap of 10**7; the refusal comes from
    # the shape, before any payoff is computed
    if cap is None:
        monkeypatch.delenv("TRANSIT_PROFILE_CAP", raising=False)
    else:
        monkeypatch.setenv("TRANSIT_PROFILE_CAP", cap)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "theorem", "2", "--n", str(n))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (5, "")
    assert err == (f"error: {n ** n} profiles exceed the cap {cap or 10_000_000}; "
                   "raise TRANSIT_PROFILE_CAP to force enumeration\n")


def test_theorem2_reports_the_closed_form_finding(capsys):
    code, out, err = run_cli(capsys, "theorem", "2", "--n", "4")
    assert code == 1  # the stated single-pile value is not the worst merge
    assert "single-pile-value(m=2)" in err
    doc = json.loads(out)
    assert all(row["cap_holds"] for row in doc["results"]["rows"])
    code, _, _ = run_cli(capsys, "theorem", "2", "--n", "3")
    assert code == 0  # no mismatch below n = 4


def test_theorem2_n6_report_is_pinned(capsys):
    # stdout captured before the degree map keyed its mask sets by array
    # passes; 720 equilibria over a box of 6**6 profiles
    code, out, err = run_cli(capsys, "theorem", "2", "--n", "6")
    assert code == 1
    assert out == (Path(__file__).parent / "theorem_reports" / "theorem2-n6.json").read_text()
    assert err == (
        "findings:\n"
        "  FAILED single-pile-value(m=2): stated closed form 4/3 vs measured 2\n"
        "  FAILED single-pile-value(m=3): stated closed form 2 vs measured 3\n"
        "  FAILED single-pile-value(m=4): stated closed form 3 vs measured 10/3\n"
    )


@pytest.mark.parametrize(
    "argv, name",
    [((), "theorem1.json"), (("--instances", "400", "--seed", "3"), "theorem1-400-seed3.json")],
)
def test_theorem1_report_is_pinned(capsys, argv, name):
    # stdout captured before the hypothesis checks read the game's integer
    # grid and each instance was gated and priced once for all m
    code, out, err = run_cli(capsys, "theorem", "1", *argv)
    assert code == 0 and err == ""
    assert out == (Path(__file__).parent / "theorem_reports" / name).read_text()


def test_theorem3_report_is_pinned(capsys):
    # stdout captured while the stretch bound still solved the transition
    # costs itself; two Figure 2 networks, each priced once
    code, out, err = run_cli(capsys, "theorem", "3")
    assert code == 0 and err == ""
    assert out == (Path(__file__).parent / "theorem_reports" / "theorem3.json").read_text()


def test_theorem1_reports_a_generator_shortfall(capsys, monkeypatch):
    # at 1,000 attempts the generator accepts 61 of the 200 instances asked
    # for; the report counts what it verified and records the shortfall
    capped = functools.partial(polymatrix.generate_theorem1_instances, max_attempts=1_000)
    monkeypatch.setattr(cli, "generate_theorem1_instances", capped)
    code, out, err = run_cli(capsys, "theorem", "1", "--instances", "200")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["checked"] == sum(results["solution_size_histogram"].values()) == 61
    assert "instance-count: 61 of 200 instances" in err


def test_oracle_matches_shipped_expectations(capsys):
    code, out, _ = run_cli(capsys, "oracle", "matrix6")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["ok"] is True


def test_fixtures_listing(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    corpus = json.loads(out)["results"]["corpus"]
    assert len(corpus) >= 13
    names = {f["name"] for f in corpus}
    assert {"matrix2", "matrix5", "matrix6", "parallel-links-4", "fig1-3"} <= names


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = main(["prices", str(bad), "--ne"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ("degree", "matrix2", "SOL", "--profile", "abc"),
    ("degree", "matrix2", "SOL", "--profile", "0,x"),
    ("graph", "check", "cycle-6", "--coloring", "1,a"),
    ("theorem", "3", "--deltas", "x"),
])
def test_malformed_numeric_arguments_are_parse_errors(capsys, tmp_path, argv):
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"game": str(fixture_path("matrix2")),
                               "members": [[0, 0], [1, 1]]}))
    code, out, err = run_cli(capsys, *(str(sol) if a == "SOL" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("prices", "matrix2", "--solutions", ""),
    ("theorem", "4", "--graph", ""),
])
def test_an_empty_flag_value_is_not_an_absent_flag(capsys, argv):
    # an empty file name names no input; the default analysis must not run
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# Fuzz pass over the four document kinds: every case deletes one required
# key or swaps one value for a value of a wrong type.  Per kind: the base
# document, the command that reads it (DOC stands for its path), the keys it
# may omit, and the fields that accept any value (names and labels).
FUZZ_KINDS = {
    "game": (json.loads(fixture_path("matrix2").read_text()),
             ("prices", "DOC", "--ne"), {"convention"}, {"players/*", "strategies/*/*"}),
    "solution": ({"label": "pure-NE", "members": [[0, 0], [1, 1]]},
                 ("degree", "matrix2", "DOC", "--saturate"), {"label"}, {"label"}),
    "network": (json.loads(fixture_path("pigou-pair").read_text()),
                ("routing", "analyze", "DOC"), set(), set()),
    "graph": ({"nodes": 4, "edges": [[0, 1], [1, 2], [2, 3]],
               "colors": [[1, 2], [2, 1], [1, 2], [1, 2]]},
              ("graph", "bounds", "DOC"), {"colors"}, set()),
}


_DELETE = object()


def _fuzz_cases(doc, optional, free):
    """(label, broken copy) for each deleted key and each wrong-type swap."""
    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            sub = path + (key,)
            name = "/".join(map(str, sub))
            if isinstance(node, dict) and name not in optional:
                yield f"delete {name}", sub, _DELETE
            if any(fnmatch.fnmatchcase(name, pattern) for pattern in free):
                continue
            if isinstance(value, (dict, list)):
                wrong = (7, "x")
                yield from walk(value, sub)
            else:
                wrong = ("x", [], None)
            for w in wrong:
                yield f"{name} = {w!r}", sub, w

    for label, path, value in walk(doc, ()):
        broken = copy.deepcopy(doc)
        parent = broken
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        yield label, broken


@pytest.mark.parametrize("kind", sorted(FUZZ_KINDS))
def test_malformed_documents_exit_2(capsys, tmp_path, kind):
    doc, argv, optional, free = FUZZ_KINDS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, *(str(path) if a == "DOC" else a for a in argv))[0] == 0
    bad = []
    cases = 0
    for label, broken in _fuzz_cases(doc, optional, free):
        path.write_text(json.dumps(broken))
        try:
            code, out, err = run_cli(capsys, *(str(path) if a == "DOC" else a for a in argv))
        except Exception as exc:  # a traceback: the error escaped the CLI
            code, out, err = None, "", repr(exc)
        if not (code == 2 and out == "" and err.startswith("error: ")
                and err.count("\n") == 1):
            bad.append((label, code, err))
        cases += 1
    assert bad == []
    assert cases >= 10


def test_boolean_payoff_after_an_equal_number_exits_2(capsys, tmp_path):
    # the loader parses each distinct payoff scalar once; true == 1 in
    # Python, so true must not reuse the parse of the 1 before it
    game = {
        "players": ["a", "b"],
        "strategies": [["x", "y"], ["x", "y"]],
        "payoffs": [[[1, 0], [0, 0]], [[0, 0], [0, True]]],
    }
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(game))
    code, out, err = run_cli(capsys, "prices", str(path), "--ne")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "boolean" in err and err.count("\n") == 1


def test_empty_solution_set_exit_code(capsys, tmp_path):
    # matching pennies has no pure equilibrium
    game = {
        "convention": "max",
        "players": ["a", "b"],
        "strategies": [["H", "T"], ["H", "T"]],
        "payoffs": [[["1", "-1"], ["-1", "1"]], [["-1", "1"], ["1", "-1"]]],
    }
    path = tmp_path / "mp.json"
    path.write_text(json.dumps(game))
    code = main(["prices", str(path), "--ne"])
    capsys.readouterr()
    assert code == 3


def test_undefined_price_exit_code(capsys, tmp_path):
    game = {
        "convention": "max",
        "players": ["a", "b"],
        "strategies": [["x"], ["y"]],
        "payoffs": [[["0", "0"]]],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(game))
    code = main(["prices", str(path), "--ne"])
    capsys.readouterr()
    assert code == 4


def test_conflicting_solution_flags_rejected(capsys):
    code = main(["prices", "matrix2", "--ne", "--eps", "1"])
    capsys.readouterr()
    assert code == 2


# a value each flag accepts, and the flags each theorem harness and graph
# action reads; every other flag is refused there
THEOREM_FLAGS = {"--instances": "5", "--seed": "1", "--n": "3", "--m": "2",
                 "--deltas": "0.1", "--tol": "1e-6", "--graph": "cycle-6",
                 "--random": "1", "--max-nodes": "5", "--forests": "2"}
THEOREM_READS = {"1": {"--instances", "--seed"}, "2": {"--n"},
                 "3": {"--n", "--m", "--deltas", "--tol"},
                 "4": {"--graph", "--random", "--seed", "--max-nodes"},
                 "5": {"--forests", "--seed"}}
GRAPH_FLAGS = {"--coloring": "1,2,1,2,1,2", "--topology": "cycle", "--stable": "weak"}
GRAPH_CALLS = {"check": ("--coloring", "1,2,1,2,1,2"),
               "construct": ("--topology", "cycle"), "bounds": ()}
GRAPH_READS = {"check": {"--coloring", "--stable"}, "construct": {"--topology"},
               "bounds": set()}
UNREAD_FLAGS = (
    [("theorem", k, flag, THEOREM_FLAGS[flag])
     for k in sorted(THEOREM_READS) for flag in THEOREM_FLAGS
     if flag not in THEOREM_READS[k]]
    + [("graph", action, "cycle-6", *GRAPH_CALLS[action], flag, GRAPH_FLAGS[flag])
       for action in sorted(GRAPH_READS) for flag in GRAPH_FLAGS
       if flag not in GRAPH_READS[action]]
    + [("degree", "matrix2", "SOL", "--saturate", "--greedy"),
       ("degree", "matrix2", "SOL", "--greedy", "--saturate"),
       ("degree", "matrix2", "SOL", "--greedy"),
       ("bounds", "matrix6", "--ne", "--stable", "weak")]
)


def _refused(capsys, tmp_path, argv):
    """main's exit code, stdout and stderr on argv; SOL is a solution file."""
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"game": str(fixture_path("matrix2")),
                               "members": [[0, 0], [1, 1]]}))
    return run_cli(capsys, *(str(sol) if a == "SOL" else a for a in argv))


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=" ".join)
def test_a_flag_the_command_does_not_read_is_refused(capsys, tmp_path, argv):
    code, out, err = _refused(capsys, tmp_path, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_each_harness_and_graph_action_accepts_the_flags_it_reads():
    # with the refusals above: 13 of 50 theorem flag slots, 3 of 9 graph slots
    parser = cli.build_parser()
    accepted = [("theorem", k, flag, THEOREM_FLAGS[flag])
                for k in sorted(THEOREM_READS) for flag in sorted(THEOREM_READS[k])]
    accepted += [("graph", action, "cycle-6", *GRAPH_CALLS[action], flag, GRAPH_FLAGS[flag])
                 for action in sorted(GRAPH_READS) for flag in sorted(GRAPH_READS[action])]
    assert len(accepted) == 13 + 3
    for argv in accepted:
        args = parser.parse_args(argv)
        assert getattr(args, argv[-2].lstrip("-").replace("-", "_")) is not None, argv


@pytest.mark.parametrize("argv", [
    ("prices",),
    ("degree", "matrix2"),
    ("degree", "matrix2", "SOL"),
    ("graph", "check", "cycle-6", "--coloring", "1,2,1,2,1,2", "--stable", "bogus"),
    ("prices", "matrix2", "--ne", "--eps", "1"),
    ("bounds", "matrix2", "--solutions", "SOL", "--ne"),
    ("graph", "check", "cycle-6"),
    ("graph", "construct", "cycle-6"),
    ("graph", "colour", "cycle-6"),
    ("theorem", "6"),
    ("theorem",),
    ("theorem", "4", "--max", "3"),
    ("theorem", "3", "--n", "x"),
    ("routing", "analyze", "fig1-3", "--to", "1e-6"),
    (),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_argparse_usage_errors_leave_as_one_line(capsys, tmp_path, argv):
    code, out, err = _refused(capsys, tmp_path, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: transit") and err.count("\n") == 1


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "transit.cli", "prices", "matrix2", "--ne"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["pota"]["exact"] == "0"


NAMED_GAME = {
    "players": ["Zoë", "Ann"],
    "strategies": [["a", "b"], ["c", "d"]],
    "payoffs": [[["1", "1"], ["0", "0"]], [["0", "0"], ["2", "2"]]],
}


def _run_module(*argv, **env):
    """`python -m transit argv` in a fresh process, with `env` added to the
    environment and the package importable from this checkout."""
    src = str(Path(transit.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    full = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **env}
    return subprocess.run([sys.executable, "-m", "transit", *argv], capture_output=True,
                          env=full)


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(NAMED_GAME, ensure_ascii=False).encode("latin-1"))
    proc = _run_module("prices", str(path), "--ne")
    err = proc.stderr.decode("utf-8", "replace")
    assert (proc.returncode, proc.stdout) == (2, b""), err
    assert err.startswith("error: ") and "not UTF-8 text" in err and err.count("\n") == 1


def test_a_utf8_game_loads_under_the_c_locale(tmp_path):
    path = tmp_path / "named.json"
    path.write_bytes(json.dumps(NAMED_GAME, ensure_ascii=False).encode("utf-8"))
    plain = _run_module("prices", str(path), "--ne")
    c_locale = _run_module("prices", str(path), "--ne",
                           LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert (plain.returncode, plain.stderr) == (0, b"")
    assert (c_locale.returncode, c_locale.stderr) == (0, b"")
    assert c_locale.stdout == plain.stdout
    assert json.loads(plain.stdout)["results"]["optimum"]["exact"] == "4"


def test_a_non_ascii_path_is_echoed_alike_under_the_c_locale(tmp_path):
    # the folder is named by the UTF-8 bytes of "ü", made and passed as
    # bytes, so the test reads the same whatever its own locale
    folder = os.path.join(os.fsencode(tmp_path), b"\xc3\xbc")
    os.mkdir(folder)
    path = os.path.join(folder, b"g.json")
    with open(path, "wb") as fh:
        fh.write(fixture_path("matrix6").read_bytes())
    plain = _run_module("prices", path, "--ne")
    c_locale = _run_module("prices", path, "--ne",
                           LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert (plain.returncode, plain.stderr) == (0, b"")
    assert (c_locale.returncode, c_locale.stderr) == (0, b"")
    assert c_locale.stdout == plain.stdout
    assert json.loads(plain.stdout)["inputs"]["game"] == path.decode("utf-8")


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "transit", "fixtures"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "matrix2" in proc.stdout


def test_million_node_graph_refused_at_once(capsys, tmp_path):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"nodes": 10**6, "edges": []}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "graph", "bounds", str(path))
    assert time.perf_counter() - start < 1
    assert code == 5 and out == ""
    assert err == "error: too many colourings to enumerate\n"


def test_graph_check_from_edge_list_text(capsys, tmp_path):
    path = tmp_path / "square.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run_cli(
        capsys, "graph", "check", str(path), "--coloring", "1,2,1,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["stable_exact"] is True
    assert doc["results"]["is_equilibrium"] is False


# `degree --profile` at every transition of each game fixture's pure
# equilibria: (degree, witness members), recorded from the branch-and-bound
# solver this one replaced.  Exact and --greedy agree on all 24 profiles.
_PROFILE_DEGREES = {
    "matrix2": {"0,0": (1, [[0, 0]]), "0,1": (2, [[0, 0], [1, 1]]),
                "1,0": (2, [[0, 0], [1, 1]]), "1,1": (1, [[1, 1]])},
    "matrix5": {"0,0": (1, [[0, 0]]), "0,1": (2, [[0, 0], [1, 1]]),
                "1,0": (2, [[0, 0], [1, 1]]), "1,1": (1, [[1, 1]])},
    "matrix6": {"0,0": (1, [[0, 0]]), "0,1": (2, [[0, 0], [1, 1]]),
                "1,0": (2, [[0, 0], [1, 1]]), "1,1": (1, [[1, 1]])},
    "matching-strategy": {"0,0": (1, [[0, 0]]), "0,1": (2, [[0, 0], [1, 1]]),
                          "1,0": (2, [[0, 0], [1, 1]]), "1,1": (1, [[1, 1]])},
    "example2-3player": {
        "0,0,0": (2, [[0, 0, 1], [0, 1, 0]]),
        "0,0,1": (1, [[0, 0, 1]]),
        "0,1,0": (1, [[0, 1, 0]]),
        "0,1,1": (1, [[0, 1, 1]]),
        "1,0,0": (2, [[0, 1, 0], [1, 0, 1]]),
        "1,0,1": (1, [[1, 0, 1]]),
        "1,1,0": (1, [[1, 1, 0]]),
        "1,1,1": (1, [[1, 1, 1]]),
    },
}


@pytest.mark.parametrize("name", sorted(_PROFILE_DEGREES))
def test_degree_profile_witnesses_are_pinned(capsys, tmp_path, name):
    from transit import io as tio
    from transit.games import enumerate_pure_ne

    game = tio.load_game(fixture_path(name))
    members = [list(m) for m in enumerate_pure_ne(game).members]
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"game": str(fixture_path(name)),
                               "label": "pure-NE", "members": members}))
    for profile, (degree, witnesses) in _PROFILE_DEGREES[name].items():
        for extra, exact in (((), True), (("--greedy",), False)):
            code, out, _ = run_cli(capsys, "degree", name, str(sol),
                                   "--profile", profile, *extra)
            assert code == 0
            got = json.loads(out)["results"]
            assert got["degree"] == degree
            assert got["witnesses"] == witnesses
            assert got["exact"] is exact
