"""Smoke check of the benchmark harness itself; makes no timing claims.

  python3 perfbench/smoke.py

Run from the root of a checkout.  Takes about half a minute: one cheap op
per workload through the real worker, a traced pass with a deadline kill, the
output checks on tampered output, the empty-directory failure, and the
metric lists in BENCHMARK.json against what run.py reports.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import run
import workloads as W

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        PROBLEMS.append(what)


def one_op_per_workload(root: str, reference: dict) -> None:
    picks = {"bounds": "bounds/C5", "verify": "verify/gfamily", "guess": "guess/C7/q=2"}
    for workload, op_id in picks.items():
        op = next(o for o in W.ops_for(workload) if o.id == op_id)
        done = run.run_pass(root, [op], reference, {}, time.perf_counter() + 170)
        expect(not done.failures and op_id in done.seconds, f"{op_id} completes and passes its checks")


def traced_pass_with_kill(root: str) -> None:
    """A traced pass of C7 then C9 under a 3 s deadline: C9 is killed, and
    C7's layer figures, answered before the kill, are kept."""
    c7 = next(o for o in W.ops_for("bounds") if o.id == "bounds/C7")
    c9 = W.probe_ops("bounds")[0]
    path = os.path.join(run.HERE, "out", "smoke.spans.jsonl")
    saved = W.DEADLINE_S
    W.DEADLINE_S = 3.0
    try:
        done = run.run_pass(root, [c7, c9], None, {}, time.perf_counter() + 170, trace_path=path)
    finally:
        W.DEADLINE_S = saved
    expect(done.failures == {c9.id: "deadline"}, "an op past the deadline is killed and recorded")
    expect(done.ref_seconds[c9.id] == 3.0, "a failed op counts at the deadline in the op times")
    layers = done.layers
    expect(done.layer_ops == 1 and layers.get("cli.calls") == 1,
           "the op answered before the kill keeps its layer figures")
    expect(layers.get("lp.solve.calls", 0) > 0, "traced op records lp.solve spans")
    expect(layers.get("lp.verify_certificates.calls", 0) >= layers.get("lp.solve.optimal", 1),
           "certificate checks cover every optimal solve")
    expect(layers.get("bounds.shannon_entropy.calls") == 2, "CLI bounds solves the entropy LP twice")
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    expect(spans and all(len(s) == 5 and s[2] >= s[1] and s[4] == c7.id for s in spans),
           "spans are (name, start, end, parent, op), written for the answered op")


def tampered_outputs() -> None:
    op = next(o for o in W.ops_for("bounds") if o.id == "bounds/C5")
    doc = {"input": {"n": 5}, "result": {
        "nu": 2, "cc": 3, "kappa_f": "5/2", "tau": 3, "theta": "5/2",
        "bracket": {"lower": "5/2", "upper": "5/2", "exact": True}}}
    reply = {"exception": None, "status": 0, "stdout": json.dumps(doc)}
    expect(run.check_reply(op, reply, None, {}) is None, "a right bounds output passes")
    doc["result"]["bracket"]["upper"] = "3"
    reply["stdout"] = json.dumps(doc)
    expect(run.check_reply(op, reply, None, {}).startswith("mismatch"), "a wrong bracket is a mismatch")
    expect(run.check_reply(op, dict(reply, status=1), None, {}) == "exit-1", "a non-zero exit fails")
    c3 = "3; 1-2,2-3,3-1"
    expect(run._code_is_valid(c3, 2, ["000", "111"]), "a valid code on C3 passes")
    expect(not run._code_is_valid(c3, 2, ["000", "001"]), "an invalid code on C3 fails")


def empty_directory(root: str) -> None:
    bare = os.path.join(run.HERE, "out", "smoke-empty")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bounds",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "without the program the benchmark exits non-zero and prints no result")


def metric_lists(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect(e2e == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(layers == run.per_layer_metrics(), "BENCHMARK.json per_layer matches run.per_layer_metrics()")
    expect([w["name"] for w in bench["workloads"]] == list(W.WORKLOADS), "workload names match")


def main() -> int:
    root = os.getcwd()
    os.makedirs(os.path.join(run.HERE, "out"), exist_ok=True)
    metric_lists(root)
    tampered_outputs()
    one_op_per_workload(root, run._load_reference())
    traced_pass_with_kill(root)
    empty_directory(root)
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
