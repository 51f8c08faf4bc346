"""graphentropy benchmark: one workload, one seed, one run.

Run from the root of a checkout:

  python3 perfbench/run.py --workload bounds --seed 0 --seconds 10 --trace 0

Workloads (see perfbench/README.md): bounds, verify, guess.  Every op is one
call of the public CLI entry point, graphentropy.cli.main, inside a worker
interpreter started fresh for each pass over the workload's ops.  The parent
enforces the per-op deadline by killing the worker, checks every output, and
prints one line per metric followed by one JSON object as the last line.

--trace 0 runs closed-loop passes until --seconds have elapsed (always at
least one whole pass) and reports the end-to-end metrics.  --trace 1 runs one
untraced and one traced pass in the same order and reports the per-layer
metrics, the tracing overhead, and the outcome of the workload's probes.
The run record, and for traced runs the spans, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads as W  # noqa: E402

# Set-up is a worker start of about 0.2 s that moves by 10 % between starts;
# the median of 15 moved about half as much between runs as that of 5.
SETUP_SAMPLES = 15
# Every reported time is calibrated to a reference machine speed: measured
# seconds times REFERENCE_SPIN_S over the worker's spin time (worker.py)
# while the op ran, or right after the worker's imports for set-up.  A
# shared 2-core virtual machine drifts in speed by 10-30 % over seconds to
# minutes; calibrated op times of repeated ops spread about a third as much
# as raw ones.  Raw times stay in the run record.
REFERENCE_SPIN_S = 0.0015
# No op runs past this many seconds into a run, so a run exits inside 180 s
# even if every op slowed down; ops cut or left out count as failed.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


def calibrated(seconds: float, spin_s: float) -> float:
    return seconds * REFERENCE_SPIN_S / spin_s


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for span in tracer.SPAN_METRICS:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    for counter in tracer.COUNTERS:
        out.append((counter, "count", "lower"))
    out.append(("bounds.shannon_entropy.per_op", "calls/op", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("probes.failed", "count", "lower"))
    return out


# -- worker processes ---------------------------------------------------------------


class WorkerDied(Exception):
    """The worker exited or closed its pipe before answering."""


class Worker:
    """One fresh interpreter running perfbench/worker.py."""

    def __init__(self, root: str, trace_path: str | None = None):
        env = dict(os.environ)
        env.pop("GRAPH_ENTROPY_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
        env["PYTHONHASHSEED"] = "0"
        cmd = [sys.executable, os.path.join(HERE, "worker.py")]
        if trace_path is not None:
            cmd += ["--trace", trace_path]
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._buf = b""
        try:
            self.info = self.receive(W.DEADLINE_S)
        except WorkerDied:
            self.info = None
        if self.info is None:
            self.kill()
            raise WorkerDied("worker did not start")
        self.startup_s = calibrated(time.perf_counter() - started, self.info["spin_s"])

    def send(self, message: dict) -> None:
        try:
            self.proc.stdin.write((json.dumps(message) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerDied("worker closed its input") from exc

    def receive(self, timeout: float) -> dict | None:
        """Next reply, or None if none arrives within timeout seconds."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise WorkerDied("worker exited")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def close(self) -> None:
        """Ask the worker to exit and wait for it; kill it if it does not."""
        try:
            self.send({"finish": True})
            self.proc.wait(timeout=5.0)
        except (WorkerDied, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# -- output checks ------------------------------------------------------------------


def _in_neighbours(text: str) -> list[set[int]]:
    """In-neighbourhoods of a graph in the benchmark's own edge/arc text."""
    head, _, body = text.partition(";")
    n = int(head)
    ins = [set() for _ in range(n)]
    directed = "->" in body
    for token in filter(None, (t.strip() for t in body.split(","))):
        u, v = (int(x) - 1 for x in token.split("->" if directed else "-"))
        ins[v].add(u)
        if not directed:
            ins[u].add(v)
    return ins


def _code_is_valid(text: str, q: int, words: list[str]) -> bool:
    """A code is valid iff at every vertex the symbol is a function of the
    symbols on its in-neighbourhood; checked in one pass per vertex."""
    ins = _in_neighbours(text)
    parsed = [tuple(int(d) for d in (w.split(",") if "," in w else w)) for w in words]
    if len(set(parsed)) != len(parsed):
        return False
    for w in parsed:
        if len(w) != len(ins) or any(not 0 <= d < q for d in w):
            return False
    for v, inv in enumerate(ins):
        seen: dict[tuple, int] = {}
        key_at = sorted(inv)
        for w in parsed:
            if seen.setdefault(tuple(w[u] for u in key_at), w[v]) != w[v]:
                return False
    return True


def _check_bounds(op: W.Op, doc: dict) -> str | None:
    res = doc["result"]
    n = doc["input"]["n"]
    lower, upper = Fraction(res["bracket"]["lower"]), Fraction(res["bracket"]["upper"])
    tau, theta = Fraction(res["tau"]), Fraction(res["theta"])
    if lower != n - Fraction(res["kappa_f"]):
        return "lower bound is not n - kappa_f"
    if not res["nu"] <= n - res["cc"] <= lower <= upper:
        return "bound chain nu <= n - cc <= lower <= upper fails"
    if upper != min(tau, theta):
        return "upper bound is not min(tau, theta)"
    value = op.expect.get("value")
    if value is not None and not (lower == upper == Fraction(value) and res["bracket"]["exact"]):
        return f"bracket [{lower}, {upper}] is not the closed form {value}"
    return None


def _check_guess(op: W.Op, doc: dict) -> str | None:
    res = doc["result"]
    if res["q"] != op.expect["q"] or res["optimal"] is not True:
        return "wrong q or not marked optimal"
    if res["code_size"] != len(res["code"]):
        return "code_size differs from the number of words"
    size = op.expect.get("code_size")
    if size is not None and res["code_size"] != size:
        return f"code size {res['code_size']} is not the closed form {size}"
    if not _code_is_valid(op.stdin, res["q"], res["code"]):
        return "code violates the guessing condition"
    return None


def _check_verify(op: W.Op, doc: dict) -> str | None:
    res = doc["result"]
    if res.get("ok") is not True:
        return "suite reports ok = false"
    for key, want in op.expect.items():
        if res.get(key) != want:
            return f"{key} is {res.get(key)!r}, expected {want!r}"
    return None


CHECKS = {"bounds": _check_bounds, "guess": _check_guess, "verify": _check_verify}


def check_reply(op: W.Op, reply: dict, reference: dict | None, seen: dict) -> str | None:
    """Failure cause of a completed op, or None when its output is right.

    Causes: an exception class name, exit-N, or mismatch: <what>.
    """
    if reply["exception"]:
        return reply["exception"]
    if reply["status"] != 0:
        return f"exit-{reply['status']}"
    out = reply["stdout"]
    try:
        doc = json.loads(out)
        problem = CHECKS[op.argv[0]](op, doc)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable output ({type(exc).__name__}: {exc})"
    if problem:
        return f"mismatch: {problem}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    if seen.setdefault(op.id, digest) != digest:
        return "mismatch: stdout changed between passes"
    if reference is not None and reference.get(op.id) != digest:
        return "mismatch: stdout differs from perfbench/reference.json"
    return None


# -- passes --------------------------------------------------------------------------


class Pass:
    """Outcome of running a list of ops, each in order, in fresh workers."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.ref_seconds: dict[str, float] = {}
        self.spin_seconds: dict[str, float] = {}
        self.failures: dict[str, str] = {}
        self.startups: list[float] = []
        self.peak_rss_mb = 0.0
        self.layers: dict[str, float] = {}
        self.layer_ops = 0
        self.info: dict | None = None

    @property
    def wall_ref_s(self) -> float:
        return sum(self.ref_seconds.values())


def _wait(end_by: float) -> tuple[float, str]:
    """Time an op may take, and the failure cause if it takes longer."""
    left = end_by - time.perf_counter()
    return (W.DEADLINE_S, "deadline") if left >= W.DEADLINE_S else (max(left, 0.0), "run-budget")


def run_pass(root, ops, reference, seen, end_by, trace_path=None) -> Pass:
    """Run ops in one worker; a deadline miss or crash kills it and the next
    op gets a fresh one.  No op runs past end_by (a perf_counter time).

    A failed op, whatever the cause, counts at the deadline in the op times,
    so a failure can never read as a speed-up.  In a traced pass each reply
    carries its op's layer summary, so a worker killed later loses none of
    the layer figures of the ops it had already answered."""
    out = Pass()
    if trace_path is not None:
        open(trace_path, "w", encoding="utf-8").close()
    worker = None
    for op in ops:
        timeout, late = _wait(end_by)
        cause = late  # stays so when no time is left to run the op
        if timeout > 0:
            if worker is None:
                worker = Worker(root, trace_path)
                out.startups.append(worker.startup_s)
                out.info = out.info or worker.info
                timeout, late = _wait(end_by)
            try:
                worker.send({"op": op.id, "argv": op.argv, "stdin": op.stdin})
                reply = worker.receive(timeout)
            except WorkerDied:
                reply, late = None, "worker-died"
            if reply is None:
                cause = late
                worker.kill()
                worker = None
            else:
                cause = check_reply(op, reply, reference, seen)
                out.seconds[op.id] = reply["seconds"]
                out.ref_seconds[op.id] = calibrated(reply["seconds"], reply["spin_s"])
                out.spin_seconds[op.id] = reply["spin_s"]
                out.peak_rss_mb = max(out.peak_rss_mb, reply["peak_rss_mb"])
                if "layers" in reply:
                    out.layer_ops += 1
                    for k, v in reply["layers"].items():
                        out.layers[k] = out.layers.get(k, 0) + v
        if cause is not None:
            out.failures[op.id] = cause
            out.ref_seconds[op.id] = W.DEADLINE_S
    if worker is not None:
        worker.close()
    return out


def run_probes(root, ops, end_by) -> dict[str, str]:
    """Each probe in its own worker, all at once; returns op id -> outcome."""
    started = []
    for op in ops:
        worker = Worker(root)
        worker.send({"op": op.id, "argv": op.argv, "stdin": op.stdin})
        started.append((op, worker, time.perf_counter() + W.DEADLINE_S))
    outcome = {}
    for op, worker, due in started:
        late = "deadline" if due <= end_by else "run-budget"
        try:
            reply = worker.receive(max(0.0, min(due, end_by) - time.perf_counter()))
            cause = late if reply is None else check_reply(op, reply, None, {})
        except WorkerDied:
            cause = "worker-died"
        worker.kill()
        outcome[op.id] = cause or "ok"
    return outcome


# -- metrics -------------------------------------------------------------------------


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  Over a
    workload's ops it moves less between runs than statistics.quantiles,
    which reads one or two order statistics (figures in README.md)."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 200  # midpoint rule inside each order statistic's interval

    grid = [(i + (k + 0.5) / steps) / n for i in range(n) for k in range(steps)]
    log_density = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in grid]
    top = max(log_density)
    weights = [0.0] * n
    for j, ld in enumerate(log_density):
        weights[j // steps] += math.exp(ld - top)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes: list[Pass], startups: list[float], gen_s: float,
               attempted: int, failed: int) -> dict:
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for op_id, s in p.ref_seconds.items():
            per_op.setdefault(op_id, []).append(s)
    # One sample per op, its median over the run's passes, however many
    # passes the machine's speed allowed.
    medians = [statistics.median(v) for v in per_op.values()]
    return {
        # One pass over the workload's ops.
        "wall_s": sum(medians),
        "op_p50_s": harrell_davis(medians, 0.5),
        "op_p90_s": harrell_davis(medians, 0.9),
        "setup_s": statistics.median(startups) + gen_s,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }


# -- environment ---------------------------------------------------------------------


def _commit(root: str) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- main ------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphentropy", "cli.py")):
        print("error: no src/graphentropy here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    reference = _load_reference()
    run_started = time.perf_counter()
    end_by = run_started + RUN_BUDGET_S

    gen_times = []
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        ops = W.ops_for(args.workload)
        gen_times.append(time.perf_counter() - t)
    startups = []
    for _ in range(SETUP_SAMPLES):
        w = Worker(root)
        startups.append(w.startup_s)
        w.close()

    rng = random.Random(args.seed)
    seen: dict[str, str] = {}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "deadline_s": W.DEADLINE_S, "commit": _commit(root),
              "nproc": _nproc()}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    passes: list[Pass] = []
    if args.trace:
        order = rng.sample(ops, len(ops))
        passes.append(run_pass(root, order, reference, seen, end_by))
        traced = run_pass(root, order, reference, seen, end_by, trace_path=stem + ".spans.jsonl")
        passes.append(traced)
        probes = run_probes(root, W.probe_ops(args.workload), end_by)
    else:
        measure_started = time.perf_counter()
        while not passes or time.perf_counter() - measure_started < args.seconds:
            passes.append(run_pass(root, rng.sample(ops, len(ops)), reference, seen, end_by))
            if time.perf_counter() > end_by:
                break

    attempted = len(passes) * len(ops)
    failures = [(op_id, cause) for p in passes for op_id, cause in p.failures.items()]
    correct = not any(cause.startswith("mismatch") for _, cause in failures)
    record.update(passes[0].info or {})
    record.pop("ready", None)

    if args.trace:
        layers = traced.layers
        metrics = {name: layers.get(name, 0) for name, _, _ in per_layer_metrics()}
        metrics["bounds.shannon_entropy.per_op"] = (
            layers.get("bounds.shannon_entropy.calls", 0) / traced.layer_ops
            if traced.layer_ops else 0.0)
        metrics["trace.overhead_s"] = traced.wall_ref_s - passes[0].wall_ref_s
        metrics["probes.failed"] = sum(1 for v in probes.values() if v != "ok")
        if layers.get("lp.verify_certificates.calls", 0) < layers.get("lp.solve.optimal", 0):
            print("guard: fewer certificate checks than optimal LP solves", file=sys.stderr)
            correct = False
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        record["probes"] = probes
    else:
        metrics = end_to_end(passes, startups + [s for p in passes for s in p.startups],
                             statistics.median(gen_times), attempted, len(failures))
        units = dict(END_TO_END)

    record.update({
        "passes": len(passes), "attempted": attempted, "failures": failures,
        "correct": correct, "metrics": metrics, "setup_samples": startups,
        "op_seconds": [p.seconds for p in passes],
        "op_ref_seconds": [p.ref_seconds for p in passes],
        "op_spin_seconds": [p.spin_seconds for p in passes],
        "wall_clock_s": time.perf_counter() - run_started,
    })
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload}: seed {args.seed}, {len(passes)} pass(es) of {len(ops)} ops, "
          f"{len(failures)} failed, Rational = {record.get('rational')}, "
          f"numpy {record.get('numpy')}, Python {record.get('python')}, "
          f"nproc {record['nproc']}, commit {record['commit'][:12]}")
    for op_id, cause in failures:
        print(f"  failed {op_id}: {cause}")
    if args.trace:
        for op_id, outcome in probes.items():
            print(f"  probe {op_id}: {outcome}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
