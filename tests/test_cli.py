import argparse
import ast
import builtins
import hashlib
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphentropy
from graphentropy import __version__, bounds, cli

RUN = [sys.executable, "-m", "graphentropy.cli"]
# The directory the package was imported from goes first on the child's path,
# so a source checkout runs without an install.
SRC = str(Path(graphentropy.__file__).resolve().parent.parent)


def child_env() -> dict:
    """This environment with SRC first on PYTHONPATH, for a CLI child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def invoke(*args, stdin: str | None = None, env: dict | None = None):
    proc = subprocess.run(
        RUN + list(args), input=stdin, capture_output=True, text=True, timeout=120,
        env={**child_env(), **(env or {})},
    )
    return proc


def write_graph(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    return write_graph(tmp_path, "c5.g6", "DLo")


def test_bounds_report(c5_file):
    proc = invoke("bounds", "--graph", c5_file)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "bounds"
    assert report["version"] == __version__
    result = report["result"]
    assert result["nu"] == 2
    assert result["cc"] == 3
    assert result["kappa_f"] == "5/2"
    assert result["tau"] == 3
    assert result["theta"] == "5/2"
    assert result["bracket"] == {"lower": "5/2", "upper": "5/2", "exact": True}
    assert result["witnesses"]["upper"]["tag"] == "shannon-lp"


# sha256 of the whole bounds stdout, without and with --lazy.  These inputs
# nest witnesses under "inner" (loop-reduction, union-additivity), which the
# benchmark's connected loopless graphs never do.
BOUNDS_DIGESTS = {
    "3; 1->1,2->3,3->2": (
        "be24debdc7210f2cf0ce94f3c9272d0fddef6264e1081254f94ae9a513b6b685",
        "75f4b4af7e61ed9c8e84114492fd259b37341bfc8dfb605ea1ab15506e72b5f8"),
    "4; 1->1,1->2,2->1,2->2,3->4,4->3": (
        "f69f0b2ecdfa844e3b7748736eafa49eccdbfe84ca29181b0375c815a0044d47",
        "2525d09600949be86784c55f484f029d8fb2baf08e06ab45d9df3e9a4f9f254b"),
    "7; 1-2,2-3,3-4,4-5,5-1,6-7": (
        "4058087156a22220c6ea46b00090f07abc89b6c9568a628f180cc4e3b24b692a",
        "cba6fb4a408be1429cb7a835a5f0068dd2bbb312283d0e343cbd6543ec0c7dcd"),
    "6; 1-2,2-3,3-4,4-5,5-1,6-6": (
        "86ee7211fed1079ec5f88efd1aedf7cb57fa2d2eab6ddb762c627f4a170bbc63",
        "86ee7211fed1079ec5f88efd1aedf7cb57fa2d2eab6ddb762c627f4a170bbc63"),
    "8; 1-2,2-3,3-4,4-5,5-1,6-7,7-8,8-6": (
        "d69969bf9e619f62818e2313cae71ef43211c02a8b8c161d03fb675ad06425ec",
        "d2631bb64a02b4c9884da9e74acc5a767e9a42f041decb243fbaa09d2c81bde1"),
    "0;": (
        "3e62d42e280b7c38cc2eb32521d0a20fcb8c4e15b58da59c921929d08e86402b",
        "3e62d42e280b7c38cc2eb32521d0a20fcb8c4e15b58da59c921929d08e86402b"),
}


# sha256 of the whole stdout of the other JSON subcommands: (argv, stdin).
PENDANT_C5 = "6; 1-2,2-3,3-4,4-5,5-1,1-6"


def cycle(n: int) -> str:
    return f"{n}; " + ",".join(f"{i + 1}-{(i + 1) % n + 1}" for i in range(n))


# C12 fills the 4,096-word cap at q = 2; K3 at q = 7 and this seeded looped
# digraph at q = 3 move words by symbol shifts that wrap past q - 1 > 1.  On
# C9 and C11 at q = 2 the first greedy dive falls short of q**tau, so its
# code is printed only once the probe and the climb find nothing larger.
C9, C11, C12 = cycle(9), cycle(11), cycle(12)
LOOPED_DIGRAPH = ("6; 1->4,1->5,2->2,2->4,3->1,3->2,3->3,3->4,3->6,4->1,4->4,4->6,"
                  "5->1,5->6,6->1,6->3,6->4,6->5")


def pin(label: str, argv: tuple, stdin: str | None, digest: str):
    """One STDOUT_DIGESTS entry under the explicit test id label-stdin-digest,
    so an entry added anywhere renames no other.  The argvN labels keep the
    ids pytest once gave these entries by position."""
    return pytest.param(argv, stdin, digest, id=f"{label}-{stdin}-{digest}")


STDOUT_DIGESTS = [
    pin("argv0", ("survey", "--n", "5"), None,
        "6fff49b892569758f64943ad956ada1f340b9ad969fc49cbeb40cf75d3780e38"),
    pin("argv1", ("survey", "--n", "5", "--jobs", "2"), None,
        "6fff49b892569758f64943ad956ada1f340b9ad969fc49cbeb40cf75d3780e38"),
    pin("argv2", ("survey", "--n", "6", "--connected"), None,
        "857827cd98b1afd300795f44b9e36427d8421ec10ccf4f8961a61af653387531"),
    pin("argv3", ("verify", "--suite", "wheel"), None,
        "5db54aabfc59bc87dbb520ccac845ce8322eb988183b3dd981d1efa967694c67"),
    pin("argv4", ("verify", "--suite", "gfamily"), None,
        "83fe3d9a45d2cd7ef0bfd63208525baf45cc5013ffac43ed5b09e1252221d257"),
    pin("argv5", ("reduce",), "DLo",
        "7d88fd61ed08c027153fb5ba5bf3e222bd8fbb14c8b73b383a0728c26138ebec"),
    pin("argv6", ("reduce",), PENDANT_C5,
        "95b9dac9a1bc07b10549491badb2d4ef8353ca6bf73d0e9815364440c44406dd"),
    pin("argv7", ("minimal-check",), "DLo",
        "a4575f9e18c1602ef7178c683d6c451cde933ce40425a7a56aaea1ca9b9355af"),
    pin("argv8", ("minimal-check",), PENDANT_C5,
        "05d23c87f952237d43f93ecc28fa764f3589c58be4cd8cbd693c3dfbb0ac0025"),
    pin("argv9", ("guess", "--q", "2"), "3; 1-2,2-3,1-3",
        "2450c70ffcbd28ad6555850438caf638b35da1e4055357539d1e27a827dea855"),
    pin("argv10", ("survey", "--n", "6"), None,
        "9b614b01a1988030f30801682163bcd694aae6aab9e858a2a281bc57f5a159b9"),
    pin("argv11", ("verify", "--suite", "theorem2"), None,
        "510407d51a31b46e63252653987864a77df76e0126d47b41609d5f56a1ca390d"),
    pin("argv12", ("guess", "--q", "2"), C12,
        "aee4f177e802240e1906cc503933a2ae5076e5a75946be90bcfd853f1fa066d3"),
    pin("argv13", ("guess", "--q", "7"), "3; 1-2,2-3,1-3",
        "0eabab399ec429376a2538204574028a8c1f04a0ad5f2e14c1126aaba7a4851b"),
    pin("argv14", ("guess", "--q", "3"), LOOPED_DIGRAPH,
        "f000563a25844e0ec4cd49ad1ddcc758746e6290e7e37a0c104d1afdd6446635"),
    pin("argv15", ("guess", "--q", "2"), C9,
        "9601eb44b8f80eaf849906338554a0cac81f369d473abb7a9876cd07b729ed77"),
    pin("argv16", ("guess", "--q", "2"), C11,
        "c18de85740b6a5f4772d8a2c5293c445e2e144a1957f6165379196afed5bebba"),
    pin("verify-theorem2-jobs2", ("verify", "--suite", "theorem2", "--jobs", "2"), None,
        "510407d51a31b46e63252653987864a77df76e0126d47b41609d5f56a1ca390d"),
    pin("survey-n8-jobs1", ("survey", "--n", "8", "--cap", "8", "--jobs", "1"), None,
        "64301729a48d4fcb2a738e78f2a3852392cdd9cbda47d708219b6581ada63e1b"),
    pin("survey-n8-jobs2", ("survey", "--n", "8", "--cap", "8", "--jobs", "2"), None,
        "64301729a48d4fcb2a738e78f2a3852392cdd9cbda47d708219b6581ada63e1b"),
]


@pytest.mark.parametrize("argv, stdin, digest", STDOUT_DIGESTS)
def test_stdout_pinned(argv, stdin, digest):
    if stdin is not None:
        argv += ("--graph", "-")
    proc = invoke(*argv, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("text, fields", [
    ("3; 1->1,2->3,3->2", (1, 2, "2", 2, "2")),
    ("4; 1->1,1->2,2->1,2->2,3->4,4->3", (2, 2, "2", 3, "3")),
    ("7; 1-2,2-3,3-4,4-5,5-1,6-7", (3, 4, "7/2", 4, "7/2")),
    ("6; 1-2,2-3,3-4,4-5,5-1,6-6", (2, 4, "7/2", 4, "7/2")),
    ("8; 1-2,2-3,3-4,4-5,5-1,6-7,7-8,8-6", (3, 4, "7/2", 5, "9/2")),
    ("0;", (0, 0, "0", 0, "0")),
])
def test_bounds_looped_and_disconnected(text, fields):
    proc = invoke("bounds", "--graph", "-", stdin=text)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert tuple(result[k] for k in ("nu", "cc", "kappa_f", "tau", "theta")) == fields
    lazy = invoke("bounds", "--graph", "-", "--lazy", stdin=text)
    assert lazy.returncode == 0
    digests = tuple(hashlib.sha256(p.stdout.encode()).hexdigest() for p in (proc, lazy))
    assert digests == BOUNDS_DIGESTS[text]


def test_bounds_lazy_theta(tmp_path, c5_file):
    # The transversal (3) misses the cover bound (5/2), so the LP runs.
    proc = invoke("bounds", "--graph", c5_file, "--lazy")
    assert json.loads(proc.stdout)["result"]["theta"] == "5/2"
    # K2: the transversal meets the cover bound and the LP is skipped.
    path = write_graph(tmp_path, "k2.el", "2; 1-2")
    proc = invoke("bounds", "--graph", path, "--lazy")
    result = json.loads(proc.stdout)["result"]
    assert result["theta"] is None
    assert result["bracket"] == {"lower": "1", "upper": "1", "exact": True}


def test_bounds_byte_identical(c5_file):
    first = invoke("bounds", "--graph", c5_file)
    second = invoke("bounds", "--graph", c5_file)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_stdin_dash():
    proc = invoke("bounds", "--graph", "-", stdin="DLo")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["theta"] == "5/2"


def test_guess_k3(tmp_path):
    path = write_graph(tmp_path, "k3.el", "3; 1-2,2-3,1-3")
    proc = invoke("guess", "--graph", path, "--q", "2")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["code_size"] == 4
    assert result["guessing_number"] == "log_2(4)"
    assert result["optimal"] is True
    assert len(result["code"]) == 4
    assert all(len(w) == 3 for w in result["code"])


def test_reduce_schema(tmp_path, c5_file):
    proc = invoke("reduce", "--graph", c5_file)
    assert json.loads(proc.stdout)["result"] == {
        "reducible": False, "S": None, "matching": None, "remainder_graph6": None,
    }

    pendant = write_graph(tmp_path, "pendant.el", "6; 1-2,2-3,3-4,4-5,5-1,1-6")
    proc = invoke("reduce", "--graph", pendant)
    result = json.loads(proc.stdout)["result"]
    assert result["reducible"] is True
    assert result["S"] == [0]
    assert result["matching"] == [[5, 0]]
    assert result["remainder_graph6"]


def test_minimal_check(c5_file):
    proc = invoke("minimal-check", "--graph", c5_file)
    result = json.loads(proc.stdout)["result"]
    assert result["candidate"] is True
    assert result["comparison"].startswith("|c(M)|")


def test_survey_json():
    proc = invoke("survey", "--n", "4")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["classes"] == 18
    assert result["unresolved"] == []
    assert "5/2" not in result["collapsed_values"]
    record = result["records"][0]
    assert set(record) == {"graph6", "n", "connected", "lower", "upper", "exact"}


def test_survey_ignores_a_tampered_bracket_cache(tmp_path):
    """Every survey value is recomputed.  A directory of well-formed bracket
    files claiming 7 for every connected class, named and laid out as the
    old on-disk cache wrote them (sha256 of the graph6 key, JSON with key,
    lower and upper), and the environment variable that once pointed the
    survey at it, leave stdout byte-identical."""
    plain = invoke("survey", "--n", "4")
    assert plain.returncode == 0
    for record in json.loads(plain.stdout)["result"]["records"]:
        if record["connected"]:
            key = record["graph6"]
            entry = {"key": key, "lower": "7", "upper": "7", "exact": True}
            name = hashlib.sha256(key.encode()).hexdigest() + ".json"
            (tmp_path / name).write_text(json.dumps(entry))
    tampered = invoke("survey", "--n", "4", env={"GRAPH_ENTROPY_CACHE": str(tmp_path)})
    assert tampered.returncode == 0
    assert tampered.stdout == plain.stdout


def test_survey_cap_flag():
    """--n below 1 is a usage error, and a survey within --cap runs; the
    survey's cap errors are cases of test_cap_errors."""
    for n in ("0", "-2"):
        proc = invoke("survey", "--n", n)
        assert proc.returncode == 2, n
        assert proc.stdout == "", n
    proc = invoke("survey", "--n", "2", "--cap", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["classes"] == 1 + 2


def test_verify_exit_codes():
    """The bare suite and the benchmark's exact argv both pass."""
    for extra in ((), ("--jobs", "1")):
        proc = invoke("verify", "--suite", "wheel", *extra)
        assert proc.returncode == 0, extra
        assert json.loads(proc.stdout)["result"]["ok"] is True


def test_lp_dump_shannon_c5(c5_file):
    proc = invoke("lp-dump", "--graph", c5_file, "--which", "shannon")
    assert proc.returncode == 0
    names = {tok for line in proc.stdout.splitlines()
             for tok in line.split() if tok.startswith("h_")}
    assert len(names) == 32
    assert "h_empty" in names
    assert proc.stdout.strip().endswith("End")


def test_lp_dump_shannon_g1(tmp_path):
    path = write_graph(tmp_path, "g1.el", "7; 1-2,2-3,3-4,4-5,5-1,6-7,6-1,6-2,7-4")
    proc = invoke("lp-dump", "--graph", path, "--which", "shannon")
    names = {tok for line in proc.stdout.splitlines()
             for tok in line.split() if tok.startswith("h_")}
    assert len(names) == 128


@pytest.mark.parametrize("text, digest", [
    ("DLo", "1bb3ecc3294d42a025ea9e70ee3fa686c57e353e41f1d411ca71b254c1746905"),
    ("7; 1-2,2-3,3-4,4-5,5-1,6-7,6-1,6-2,7-4",
     "d2cb328e2a89ce0c48b64081ca25d41fc96c9b8cd82bde9a6efe63cbf412f016"),
    ("1;", "f9ecb9b0db3a76225eaa0002164b8b1835e4aa35ba8e2814591203552cbf2259"),
    ("3; 1-2", "15c003fe97d15f1f4a86811740efe293814c3625c81cdf1facd8774b327a639f"),
    ("3; 1->2,2->3,3->1", "eae4c40eec1ab4f562214514bdd080c889568be9efd680083e17d87aabc06600"),
])
def test_lp_dump_shannon_pinned(text, digest):
    proc = invoke("lp-dump", "--graph", "-", "--which", "shannon", stdin=text)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_lp_dump_cover_k2(tmp_path):
    path = write_graph(tmp_path, "k2.el", "2; 1-2")
    proc = invoke("lp-dump", "--graph", path, "--which", "fractional-cover")
    assert proc.returncode == 0
    body = proc.stdout
    assert "w_0" in body and "w_1" not in body
    assert " obj: w_0" in body


def test_usage_errors():
    assert invoke("bounds").returncode == 2
    assert invoke("nonsense").returncode == 2
    assert invoke("bounds", "--graph", "/does/not/exist").returncode == 2
    for argv, says in ((("survey", "--n", "2", "--jobs", "0"), "--jobs"),
                       (("verify", "--suite", "wheel", "--jobs", "-3"), "--jobs"),
                       (("guess", "--q", "1", "--graph", "/does/not/exist"),
                        "--q must be at least 2, got 1")):
        proc = invoke(*argv)
        assert proc.returncode == 2, argv
        assert proc.stdout == "", argv
        assert says in proc.stderr, argv


def path_graph(n: int) -> str:
    return f"{n}; " + ",".join(f"{v}-{v + 1}" for v in range(1, n))


# The 11-vertex path: one vertex past the default subset-entropy cap, with a
# transversal that already meets the lower bound.
P11 = path_graph(11)
# The 17-vertex path is one past the reduction cap, the 25-vertex path one
# past the matching's fixed component cap, the 65-vertex path one past the
# graph cap.
P17, P25, P65 = path_graph(17), path_graph(25), path_graph(65)


@pytest.mark.parametrize("argv, stdin, flag, says", [
    pytest.param(("bounds",), P11, "--shannon-cap", "subset-entropy LP on 11 vertices",
                 id="bounds-shannon"),
    pytest.param(("lp-dump", "--which", "shannon"), P11, "--shannon-cap",
                 "subset-entropy cap 10", id="lp-dump-shannon"),
    pytest.param(("bounds", "--lazy", "--shannon-cap", "30"), P25, None,
                 "matching on a component with 25 vertices exceeds the 24-vertex cap",
                 id="bounds-matching"),
    pytest.param(("minimal-check", "--cap", "30"), P25, None,
                 "matching on a component with 25 vertices exceeds the 24-vertex cap",
                 id="minimal-check-matching"),
    pytest.param(("guess", "--q", "2"), "13;", "--cap", "word space 2**13", id="guess"),
    pytest.param(("reduce",), P17, "--cap", "reduction cap 16", id="reduce"),
    pytest.param(("minimal-check",), P17, "--cap", "reduction cap 16", id="minimal-check"),
    pytest.param(("survey", "--n", "8"), None, "--cap", "cap 7", id="survey"),
    pytest.param(("survey", "--n", "3", "--cap", "2"), None, "--cap", "cap 2",
                 id="survey-cap-2"),
    pytest.param(("bounds",), P65, None, "vertex count 65 exceeds the 64-vertex cap",
                 id="edge-list-65"),
    pytest.param(("bounds",), "~?@@", None, "graph6 input has 65 vertices, cap is 64",
                 id="graph6-65"),
])
def test_cap_errors(argv, stdin, flag, says):
    """A cap hit exits 2 with one error line that says which cap it hit and
    names the flag that raises that cap, or no flag for the fixed caps."""
    if stdin is not None:
        argv += ("--graph", "-")
    proc = invoke(*argv, stdin=stdin)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and says in line, line
    assert "parse" not in line, line
    named = {f for f in ("--cap", "--shannon-cap") if f in line}
    assert named == ({flag} if flag else set()), line


@pytest.mark.parametrize("argv, stdin", [
    pytest.param(("bounds",), P11, id="bounds-default-cap"),
    pytest.param(("bounds", "--shannon-cap", "6"), path_graph(7), id="bounds-cap-6"),
    pytest.param(("lp-dump", "--which", "shannon", "--shannon-cap", "6"), path_graph(7),
                 id="lp-dump-cap-6"),
])
def test_refused_lp_builds_no_elemental_table(argv, stdin, monkeypatch, capsys):
    """An input past --shannon-cap exits 2 before any elemental table is
    read, so a refused input cannot grow the per-n table cache."""
    table = bounds._elemental_table
    sizes = []
    monkeypatch.setattr(bounds, "_elemental_table", lambda n: sizes.append(n) or table(n))
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    cached = table.cache_info().currsize
    assert cli.main([*argv, "--graph", "-"]) == 2
    assert "--shannon-cap" in capsys.readouterr().err
    assert sizes == [] and table.cache_info().currsize == cached
    monkeypatch.setattr(sys, "stdin", io.StringIO(path_graph(5)))
    assert cli.main([*argv, "--graph", "-"]) == 0
    assert sizes and set(sizes) == {5}


def cap_raise_flags() -> list:
    """The flag argument of every CapExceededError(...) call in the package,
    as an ast node or None where the call passes none."""
    flags = []
    for path in sorted(Path(graphentropy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                    == "CapExceededError"):
                continue
            given = [k.value for k in node.keywords if k.arg == "flag"] + node.args[1:]
            flags.append(given[0] if given else None)
    return flags


def parser_options() -> set:
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {opt for sub in subs.choices.values()
            for action in sub._actions for opt in action.option_strings}


def test_cap_raise_sites_name_real_flags():
    """Every flag a cap error names is an option of some subcommand, and
    every cap option of the parser is named by some raise site."""
    flags = cap_raise_flags()
    assert flags
    options = parser_options()
    named = set()
    for node in flags:
        if node is None:
            continue
        assert isinstance(node, ast.Constant) and isinstance(node.value, str), ast.dump(node)
        assert node.value in options, node.value
        named.add(node.value)
    cap_options = {opt for opt in options if opt.endswith("-cap")}
    assert {"--cap", "--shannon-cap"} <= cap_options <= named, (cap_options, named)


def test_handlers_leave_serialization_to_main():
    """No _cmd_* handler calls rat_str, _jsonify or as_dict: handlers
    return plain values and main serializes the result once."""
    tree = ast.parse(Path(cli.__file__).read_text(), cli.__file__)
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(handlers) == 7
    for handler in handlers:
        called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                  for node in ast.walk(handler) if isinstance(node, ast.Call)}
        assert not called & {"rat_str", "_jsonify", "as_dict"}, handler.name


def test_one_process_serves_calls_alike(tmp_path, capsys):
    """bounds --lazy, bounds, guess and lp-dump run in that order in one
    process on the one parser each print what the same call prints in a
    process of its own: no parse leaves state behind for the next."""
    p4 = write_graph(tmp_path, "p4.el", path_graph(4))
    k3 = write_graph(tmp_path, "k3.el", "3; 1-2,2-3,1-3")
    calls = [("bounds", "--lazy", "--graph", p4), ("bounds", "--graph", p4),
             ("guess", "--q", "2", "--graph", k3),
             ("lp-dump", "--which", "shannon", "--graph", p4)]
    outputs = []
    for argv in calls:
        assert cli.main(list(argv)) == 0
        outputs.append(capsys.readouterr().out)
        alone = invoke(*argv)
        assert alone.returncode == 0, alone.stderr
        assert outputs[-1] == alone.stdout, argv
    # The lazy call skips the LP that the plain one runs, so a leaked --lazy
    # would show.
    assert json.loads(outputs[0])["result"]["theta"] is None
    assert json.loads(outputs[1])["result"]["theta"] == "2"
    assert cli.build_parser() is cli.build_parser()


def test_lazy_bounds_skip_the_capped_lp():
    proc = invoke("bounds", "--graph", "-", "--lazy", stdin=P11)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["theta"] is None
    assert result["bracket"] == {"lower": "5", "upper": "5", "exact": True}


# Run in a child that cannot import numpy, so lp._numpy takes its
# ImportError branch, then the CLI with the arguments given.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from graphentropy import cli, lp
assert lp._numpy() is None
sys.exit(cli.main(sys.argv[1:]))
"""

# Run the CLI with the arguments given in a child, then fail unless numpy
# was never imported.
NUMPY_UNTOUCHED = """
import sys
from graphentropy import cli
code = cli.main(sys.argv[1:])
assert "numpy" not in sys.modules, "numpy was imported"
sys.exit(code)
"""


@pytest.mark.parametrize("argv, graph, key, value", [
    (("guess", "--q", "2"), "DLo", "code_size", 5),
    (("reduce",), "DLo", "reducible", False),
    (("minimal-check",), "DLo", "candidate", True),
    (("bounds",), cycle(6), "theta", "3"),
], ids=["guess", "reduce", "minimal-check", "bounds-C6"])
def test_lp_free_subcommand_leaves_numpy_unimported(argv, graph, key, value):
    """numpy is imported on the first float proposal, and guess, reduce and
    minimal-check run no LP, nor does bounds where n - kappa_f = tau (C6,
    at 3)."""
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_UNTOUCHED, *argv, "--graph", "-"],
        input=graph, capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"][key] == value


def test_cli_import_leaves_numpy_and_multiprocessing_unimported():
    """Importing the CLI loads neither numpy nor multiprocessing: every
    command pays the import, and only a float proposal or --jobs > 1 uses
    them."""
    probe = ("import sys\nimport graphentropy.cli\n"
             "print(sorted({'numpy', 'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bounds_without_numpy(tmp_path):
    """The numpy-free install end to end: bounds on C5, C7 and the 11/3
    graph exit 0 with the bound values and bracket of a run with numpy."""
    keys = ("nu", "cc", "kappa_f", "tau", "theta", "bracket")
    graphs = {"c5.el": "5; 1-2,2-3,3-4,4-5,5-1", "c7.el": "7; 1-2,2-3,3-4,4-5,5-6,6-7,7-1",
              "g1.el": "7; 1-2,2-3,3-4,4-5,5-1,6-7,6-1,6-2,7-4"}
    thetas = []
    for name, text in graphs.items():
        path = write_graph(tmp_path, name, text)
        bare = subprocess.run(
            [sys.executable, "-c", WITHOUT_NUMPY, "bounds", "--graph", path],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert bare.returncode == 0, bare.stderr
        normal = invoke("bounds", "--graph", path)
        assert normal.returncode == 0, normal.stderr
        got, want = (json.loads(p.stdout)["result"] for p in (bare, normal))
        assert {k: got[k] for k in keys} == {k: want[k] for k in keys}, name
        thetas.append(got["theta"])
    assert thetas == ["5/2", "7/2", "11/3"]


# Run in a child with the package and the benchmark's tracer on the path: the
# tracer wraps every one of its targets, then one CLI bounds op on C5.
TRACED_BOUNDS = """
import importlib, json, sys
import tracer
spans, graph, out = sys.argv[1:]
t = tracer.Tracer(spans)
tracer.install(t)
wrapped = []
for name, module_name, attr in tracer.TARGETS:
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    wrapped.append(hasattr(obj, "__wrapped__"))
from graphentropy import cli
t.start_op("bounds")
status = cli.main(["bounds", "--graph", graph])
with open(out, "w") as fh:
    json.dump({"status": status, "wrapped": wrapped, "layers": t.finish_op()}, fh)
"""


def test_benchmark_tracer_targets_resolve(tmp_path, c5_file):
    """A rename or removal of a name the benchmark's tracer wraps or reads
    fails here rather than in a traced benchmark run."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    out = tmp_path / "traced.json"
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_BOUNDS, str(tmp_path / "spans.jsonl"), c5_file, str(out)],
        capture_output=True, text=True, timeout=120,
        env={**child_env(), "PYTHONPATH": os.pathsep.join([SRC, str(perfbench)])},
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(out.read_text())
    assert traced["status"] == 0
    assert traced["wrapped"] and all(traced["wrapped"]), traced["wrapped"]
    assert traced["layers"]["lp.solve.calls"] >= 1
    assert traced["layers"]["lp.solve.rows"] > 0
    assert traced["layers"]["bounds.entropy_bracket.calls"] >= 1
    assert traced["layers"]["bounds.fractional_cover.calls"] >= 1


def _load_tracer():
    """perfbench/tracer.py as a module, loaded without installing it; it
    imports only the standard library."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_and_after_hooks_resolve(tmp_path):
    """Every (module, attribute) the tracer wraps resolves, Class.method
    targets included, and every after-hook runs on a real result of its
    target, so the attributes it reads still exist."""
    tracer = _load_tracer()
    resolved = {}
    for _, module_name, attr in tracer.TARGETS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, attr)
        resolved[module_name, attr] = obj
    assert set(tracer.AFTER) <= set(resolved)
    from graphentropy.graphs import Graph
    from graphentropy.guessing import CompatibilityGraph
    from graphentropy.lp import GE, LinearProgram

    assert callable(CompatibilityGraph.edge_count) and callable(CompatibilityGraph.__len__)
    args = {
        ("graphentropy.lp", "solve"): (LinearProgram(1, "min", [1], [({0: 1}, GE, 1)]),),
        ("graphentropy.guessing", "compatibility_graph"): (Graph.cycle(3), 2),
    }
    assert set(args) == set(tracer.AFTER)
    t = tracer.Tracer(str(tmp_path / "spans.jsonl"))
    for key, after in tracer.AFTER.items():
        after(t, args[key], {}, resolved[key](*args[key]))
    assert all(t.counters[name] > 0 for name in tracer.COUNTERS), t.counters


def test_version_flag():
    proc = invoke("--version")
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def test_package_exports_resolve():
    """Every name in graphentropy.__all__ is an attribute of the package, so
    a removed name cannot stay behind as a stale export."""
    missing = [name for name in graphentropy.__all__ if not hasattr(graphentropy, name)]
    assert not missing, missing


def test_readme_names_resolve():
    """Every graphentropy.<dotted> name and every backticked class name in
    README.md is an attribute of the package or of one of its modules
    (builtins aside), so a removed class cannot stay behind in the docs."""
    modules = [graphentropy] + [
        importlib.import_module(f"graphentropy.{info.name}")
        for info in pkgutil.iter_modules(graphentropy.__path__)]
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = []
    for dotted in set(re.findall(r"graphentropy(?:\.[A-Za-z_]\w*)+", text)):
        obj = graphentropy
        for part in dotted.split(".")[1:]:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(dotted)
    classes = set(re.findall(r"`([A-Z]\w*[a-z]\w*)`", text)) - set(dir(builtins))
    missing += [name for name in classes if not any(hasattr(m, name) for m in modules)]
    assert len(classes) >= 5 and not missing, sorted(missing)


def test_every_oracle_is_used():
    """Every public top-level name of tests/_oracles.py is read by a test
    module, by conftest.py or by another oracle, so an oracle that nothing
    checks against cannot stay behind."""
    tests = Path(__file__).resolve().parent

    def names_read(tree) -> set[str]:
        return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}

    body = ast.parse((tests / "_oracles.py").read_text()).body
    defined = {}
    for node in body:
        targets = node.targets if isinstance(node, ast.Assign) else [node]
        for target in targets:
            name = getattr(target, "name", getattr(target, "id", None))
            if name and not name.startswith("_"):
                defined[name] = node
    read = set()
    for path in [*tests.glob("test_*.py"), tests / "conftest.py"]:
        read |= names_read(ast.parse(path.read_text()))
    unused = [name for name, node in defined.items() if name not in read and not any(
        name in names_read(other) for other in body if other is not node)]
    assert len(defined) >= 20 and not unused, unused
