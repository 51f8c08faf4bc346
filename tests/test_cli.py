import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphentropy
from graphentropy import __version__

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


@pytest.mark.parametrize("text, fields", [
    ("3; 1->1,2->3,3->2", (1, 2, "2", 2, "2")),
    ("4; 1->1,1->2,2->1,2->2,3->4,4->3", (2, 2, "2", 3, "3")),
    ("7; 1-2,2-3,3-4,4-5,5-1,6-7", (3, 4, "7/2", 4, "7/2")),
])
def test_bounds_looped_and_disconnected(text, fields):
    proc = invoke("bounds", "--graph", "-", stdin=text)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert tuple(result[k] for k in ("nu", "cc", "kappa_f", "tau", "theta")) == fields


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
    """Past the default cap the survey exits 2 and names the flag; --cap
    exists, and a survey within it runs.  --n below 1 is a usage error too."""
    proc = invoke("survey", "--n", "8")
    assert proc.returncode == 2
    assert "--cap" in proc.stderr
    for n in ("0", "-2"):
        proc = invoke("survey", "--n", n)
        assert proc.returncode == 2, n
        assert proc.stdout == "", n
    proc = invoke("survey", "--n", "3", "--cap", "2")
    assert proc.returncode == 2
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


def test_cap_violation(tmp_path):
    path = write_graph(tmp_path, "big.el",
                       "13; " + ",".join(f"{v}-{v + 1}" for v in range(1, 13)))
    proc = invoke("guess", "--graph", path, "--q", "2")
    assert proc.returncode == 2
    assert "cap" in proc.stderr


def test_version_flag():
    proc = invoke("--version")
    assert proc.returncode == 0
    assert __version__ in proc.stdout
