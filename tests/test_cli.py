import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphentropy
from graphentropy import __version__, cli

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
STDOUT_DIGESTS = [
    (("survey", "--n", "5"), None,
     "6fff49b892569758f64943ad956ada1f340b9ad969fc49cbeb40cf75d3780e38"),
    (("survey", "--n", "5", "--jobs", "2"), None,
     "6fff49b892569758f64943ad956ada1f340b9ad969fc49cbeb40cf75d3780e38"),
    (("survey", "--n", "6", "--connected"), None,
     "857827cd98b1afd300795f44b9e36427d8421ec10ccf4f8961a61af653387531"),
    (("verify", "--suite", "wheel"), None,
     "5db54aabfc59bc87dbb520ccac845ce8322eb988183b3dd981d1efa967694c67"),
    (("verify", "--suite", "gfamily"), None,
     "83fe3d9a45d2cd7ef0bfd63208525baf45cc5013ffac43ed5b09e1252221d257"),
    (("reduce",), "DLo", "7d88fd61ed08c027153fb5ba5bf3e222bd8fbb14c8b73b383a0728c26138ebec"),
    (("reduce",), PENDANT_C5,
     "95b9dac9a1bc07b10549491badb2d4ef8353ca6bf73d0e9815364440c44406dd"),
    (("minimal-check",), "DLo",
     "a4575f9e18c1602ef7178c683d6c451cde933ce40425a7a56aaea1ca9b9355af"),
    (("minimal-check",), PENDANT_C5,
     "05d23c87f952237d43f93ecc28fa764f3589c58be4cd8cbd693c3dfbb0ac0025"),
    (("guess", "--q", "2"), "3; 1-2,2-3,1-3",
     "2450c70ffcbd28ad6555850438caf638b35da1e4055357539d1e27a827dea855"),
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
    """No _cmd_* handler calls rat_str or _jsonify: handlers return plain
    values and main serializes the result once."""
    tree = ast.parse(Path(cli.__file__).read_text(), cli.__file__)
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(handlers) == 7
    for handler in handlers:
        called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                  for node in ast.walk(handler) if isinstance(node, ast.Call)}
        assert not called & {"rat_str", "_jsonify"}, handler.name


def test_lazy_bounds_skip_the_capped_lp():
    proc = invoke("bounds", "--graph", "-", "--lazy", stdin=P11)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["theta"] is None
    assert result["bracket"] == {"lower": "5", "upper": "5", "exact": True}


# Run in a child that cannot import numpy, so lp.py takes its ImportError
# branch, then the CLI with the arguments given.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from graphentropy import cli, lp
assert lp._np is None
sys.exit(cli.main(sys.argv[1:]))
"""


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


def test_version_flag():
    proc = invoke("--version")
    assert proc.returncode == 0
    assert __version__ in proc.stdout
