"""Benchmark bvpseries end to end, or per layer with --trace 1.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in problems.py. Each op is one ``python -m bvpseries``
subprocess of the checkout's own ``src`` (put first on PYTHONPATH), spawned
by this single process in a closed loop: one client, one op at a time, the
next op only after the previous one has exited. A run makes a fixed number
of ops, problems.op_count(workload, S): whole cycles of grid sizes and
commands that took about S seconds at seed, so every commit measures and
ranks the same problems however fast it is. Before each op a bare
``import bvpseries.cli`` interpreter is timed for setup_s.

The host's speed swings by up to half from second to second, so the timed
metrics are given at a fixed reference host speed: the hostspeed.probe
work is timed right before and right after each op, and the op's wall time
is multiplied by hostspeed.REFERENCE_S over the mean of those two probes
(a set-up sample by the probe right after it). setup_s, op_s.p50,
op_s.tail and nodes_per_s are computed from these rescaled times; the raw
wall-clock figures and the probe times are on the report line, and so are
op_s.p50 and op_s.tail, which the result line leaves out (see timed_run).

Every output is checked against the manufactured solution u*:

* solve and fundamental: max|u - u*| / (1 + sup|u*|) must stay inside
  ENVELOPE_FACTOR times the bound of Problem.envelope, and the payload's q
  must be the drawn q;
* verify: the payload's ``passed`` must match the exit code. A failed
  verdict on these correct solutions counts the op as failed and tallies
  the failing checks by name.

An op fails on a nonzero exit, an unparsable payload, or an error outside
the envelope. ``correct`` is false when an output disagrees with the
reference or with itself: an error outside the envelope, a wrong q, an
unparsable payload, a verdict that contradicts the exit code, or an exit
code the command should not give for these inputs.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first
op_count(workload, S / 2) problems twice each, as the plain CLI op and
through traced_op.py, and prints the per-layer metrics (raw wall time,
not rescaled) and the tracing overhead. Stdout carries one JSON line per op
(its exact argv, so any op can be replayed with
``PYTHONPATH=src python3 -m bvpseries ARGV``), one report line with every
metric, the environment and the tallies, and last the result line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed
from problems import WORKLOADS, Problem, op_count, problems
from tracing import Span, layer_self_times, span_total

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

TOL = 1e-10  # the CLI's default --tol, which the ops use
ENVELOPE_FACTOR = 5.0  # keeps the worst seed error (0.3 of the bound) 15x inside
Q_REL_TOL = 1e-12
TAIL_BEYOND = 10
LAYERS = ("setup", "expr", "grid", "series_core", "bvp", "checks", "oracle", "cli", "glue")
OK_EXITS = {"solve": {0}, "fundamental": {0}, "verify": {0, 5}}


@dataclass(frozen=True)
class Finished:
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    rss_mib: float


def child_env() -> dict:
    """The caller's environment with the checkout's src first on the path,
    one thread per numeric library, and bytecode caching on, as users
    have it by default."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _drain(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF together, so neither pipe stalls."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def run_child(argv: list[str], env: dict) -> Finished:
    """Spawn, drain and reap one child; wall time runs from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, out, err, wall, usage.ru_maxrss / 1024.0)


def cli_argv(problem: Problem) -> list[str]:
    return [sys.executable, "-m", "bvpseries", *problem.argv()]


def import_wall(env: dict) -> float:
    """Wall time of a fresh interpreter that imports bvpseries.cli and exits."""
    fin = run_child([sys.executable, "-c", "import bvpseries.cli"], env)
    if fin.code != 0:
        raise RuntimeError(f"importing bvpseries.cli failed: {fin.stderr.decode()}")
    return fin.wall


def _parse_csv(text: str) -> tuple[dict, dict]:
    """('# key = value' preamble, columns of the node table) of a CSV payload."""
    lines = text.splitlines()
    meta = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    table = [line for line in lines if not line.startswith("# ")]
    if not table:
        raise ValueError("CSV payload has no table")
    header, rows = table[0].split(","), table[1:]
    values = np.array(",".join(rows).split(","), dtype=float).reshape(len(rows), len(header))
    meta["q"] = float(meta["q"])
    return meta, {name: values[:, j] for j, name in enumerate(header)}


def _solution(problem: Problem, text: str) -> tuple[float, np.ndarray, np.ndarray]:
    """(q, nodes, u) from a solve or fundamental payload."""
    if problem.fmt == "csv":
        meta, cols = _parse_csv(text)
        q, nodes = meta["q"], cols["x"]
    else:
        payload = json.loads(text)
        q, nodes = payload["q"], np.array(payload["nodes"])
        cols = {k: np.array(payload[k]) for k in ("u", "I1", "I2", "F") if k in payload}
    if problem.command == "solve":
        u = cols["u"]
    else:
        u = problem.beta * cols["I1"] + problem.alpha * cols["I2"] + cols["F"]
    return q, nodes, u


def check_op(problem: Problem, fin: Finished) -> dict:
    """Judge one op's output against u*; see the module docstring."""
    record = {"op": problem.index, "n": problem.n, "argv": problem.argv(), "exit": fin.code,
              "wall_s": fin.wall, "rss_mib": fin.rss_mib, "failed": fin.code != 0,
              "correct": fin.code in OK_EXITS[problem.command]}
    text = fin.stdout.decode()
    try:
        if problem.command == "verify":
            payload = json.loads(text)
            record["failed_checks"] = [c["name"] for c in payload["checks"] if not c["passed"]]
            q = payload["q"]
            if payload["passed"] != (fin.code == 0):
                record["correct"] = False
        else:
            q, nodes, u = _solution(problem, text)
            exact = problem.exact(nodes)
            err = float(np.max(np.abs(u - exact)) / (1.0 + np.max(np.abs(exact))))
            envelope = ENVELOPE_FACTOR * problem.envelope(TOL)
            record.update(err=err, envelope=envelope)
            if not err <= envelope:
                record.update(failed=True, correct=False)
    except (ValueError, KeyError, TypeError) as exc:
        record.update(failed=True, correct=False, error=f"unparsable payload: {exc}")
        return record
    if not abs(q - problem.q) <= Q_REL_TOL * problem.q:
        record.update(failed=True, correct=False, error=f"payload q {q!r} != drawn {problem.q!r}")
    return record


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at least
    TAIL_BEYOND values above it, or the smallest value when there are fewer."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": model, "commit": _git_commit()}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def first_problems(workload: str, seed: int, count: int) -> list[Problem]:
    return list(itertools.islice(problems(workload, seed), count))


def timed_run(workload: str, seed: int, seconds: float, env: dict) -> tuple[list, dict, dict]:
    # The first import writes the bytecode caches, which users pay once;
    # one import before each op spreads the set-up samples over the run.
    import_wall(env)
    setup_walls, probes, records = [], [], []
    for problem in first_problems(workload, seed, op_count(workload, seconds)):
        setup_walls.append(import_wall(env))
        before = hostspeed.probe()
        fin = run_child(cli_argv(problem), env)
        probes += [before, hostspeed.probe()]
        record = check_op(problem, fin)
        record.update(host_probe_s=probes[-2:],
                      wall_norm_s=hostspeed.normalised(record["wall_s"], probes[-2:]))
        records.append(record)
        print(json.dumps(record), flush=True)
    # Each set-up sample is rescaled by the probe right after it.
    setups = [hostspeed.normalised(w, [p]) for w, p in zip(setup_walls, probes[::2])]
    walls = [r["wall_norm_s"] for r in records]
    raw_walls = [r["wall_s"] for r in records]
    nodes = sum(r["n"] + 1 for r in records)
    tail_pct, tail_s = tail(walls)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "nodes_per_s": metric(nodes / sum(walls), "nodes/s"),
        "peak_rss_mb": metric(max(r["rss_mib"] for r in records), "MiB"),
    }
    errs = [r["err"] for r in records if "err" in r]
    # op_s.p50 and op_s.tail are reported, not gated. Each rests on one or
    # two ops of a run: the median of verify-fine's 12 ops is the middle of
    # its four n=32768 ops, and the tail (the p17-p58 op at 12-24 ops a run)
    # sits below the median on two workloads. A rescaled op still varies by
    # about 15% from run to run, so both spread up to the 0.25 bound;
    # nodes_per_s sums every op of the run and spreads less than half that.
    extra = {
        "op_s.p50": metric(statistics.median(walls), "s"),
        "op_s.tail": metric(tail_s, "s"),
        "op_s.tail_percentile": tail_pct,
        "fail_ratio": metric(sum(r["failed"] for r in records) / len(records), "1"),
        "err_max": metric(max(errs), "1") if errs else None,
        "err_over_envelope_max": max((r["err"] / r["envelope"] for r in records if "err" in r),
                                     default=None),
        "host_probe_s": {"p50": statistics.median(probes), "min": min(probes),
                         "max": max(probes), "reference": hostspeed.REFERENCE_S},
        "raw_wall": {
            "setup_s": metric(statistics.median(setup_walls), "s"),
            "op_s.p50": metric(statistics.median(raw_walls), "s"),
            "nodes_per_s": metric(nodes / sum(raw_walls), "nodes/s"),
        },
    }
    return records, metrics, extra


def _trace_summary(traces: list[dict]) -> dict:
    """Per-layer metrics, as means per traced op unless named otherwise."""
    count = len(traces)
    mean = lambda key: sum(t[key] for t in traces) / count
    per_op = []
    self_totals = Counter()
    effective_total = 0.0
    for t in traces:
        spans = [Span(**r) for r in t["spans"]]
        run_s = span_total(spans, "cli.run")
        render = run_s - t["cli_chain_s"]
        selfs = layer_self_times(spans)
        selfs["cli"] = selfs.get("cli", 0.0) - run_s + render
        self_totals.update(selfs)
        effective_total += spans[0].duration - run_s + render
        node_terms = t["terms"] * (t["n"] + 1)
        per_op.append({
            "expr.parse_s": span_total(spans, "expr.parse"),
            "grid.sample_s": span_total(spans, "grid.sample"),
            "series.sum_s": span_total(spans, "series.fundamental_system"),
            "bvp.solve_s": span_total(spans, "bvp."),
            "oracle.shoot_s": span_total(spans, "oracle.oracle_fundamental"),
            "oracle.compare_s": span_total(spans, "oracle.compare"),
            "checks.run_s": span_total(spans, "checks."),
            "cli.render_s": render,
            "node_terms": node_terms,
        })
    sums = {k: sum(p[k] for p in per_op) for k in per_op[0]}
    out = {k: metric(sums[k] / count, "s") for k in per_op[0] if k.endswith("_s")}
    out.update({
        "grid.sample_evals": metric(mean("sample_evals"), "count"),
        "series.terms": metric(mean("terms"), "count"),
        "series.node_terms": metric(sums["node_terms"] / count, "count"),
        "series.ns_per_node_term": metric(1e9 * sums["series.sum_s"] / sums["node_terms"], "ns"),
        "series.tail_max": metric(max(t["tail_max"] for t in traces), "1"),
        "oracle.steps": metric(mean("oracle_steps"), "count"),
        "oracle.scalar_evals": metric(mean("oracle_evals"), "count"),
        "checks.failed": metric(sum(len(t["failed_checks"]) for t in traces) / count, "count"),
        "cli.out_bytes": metric(mean("out_bytes"), "B"),
        "trace.overhead_s": metric(mean("overhead_s"), "s"),
    })
    for layer in LAYERS:
        out[f"self.{layer}_s"] = metric(self_totals[layer] / count, "s")
        out[f"share.{layer}"] = metric(100.0 * self_totals[layer] / effective_total, "%")
    return out


def traced_run(workload: str, seed: int, seconds: float, env: dict) -> tuple[list, dict, dict]:
    records, traces = [], []
    # Each problem runs twice, so half as many keep the run near ``seconds``.
    for problem in first_problems(workload, seed, op_count(workload, seconds / 2)):
        record = check_op(problem, run_child(cli_argv(problem), env))
        fin = run_child([sys.executable, str(BENCH / "traced_op.py"), str(problem.index),
                         *problem.argv()], env)
        try:
            trace = json.loads(fin.stdout.decode().splitlines()[-1])
        except (ValueError, IndexError):
            trace = None
        if fin.code != 0 or trace is None or trace["exit"] != record["exit"]:
            record.update(correct=False, error="traced op disagrees with the CLI op: "
                          + fin.stderr.decode()[-500:])
        else:
            trace["overhead_s"] = fin.wall - record["wall_s"]
            traces.append(trace)
        records.append(record)
        print(json.dumps(record), flush=True)
    metrics = _trace_summary(traces) if traces else {}
    extra = {"traced_ops": len(traces),
             "checks.failed_names": dict(Counter(n for t in traces for n in t["failed_checks"])),
             "derived": ["cli.render_s: cli.run span minus the layer calls cli.run makes, "
                         "timed inside the same call; cli self time and shares use it in "
                         "place of cli.run"]}
    return records, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "bvpseries" / "cli.py").is_file():
        print(f"bench: no bvpseries sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    run = traced_run if args.trace else timed_run
    records, metrics, extra = run(args.workload, args.seed, args.seconds, env)
    failed_checks = Counter(n for r in records for n in r.get("failed_checks", ()))
    report = {
        "report": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(records), "replay": "PYTHONPATH=src python3 -m bvpseries ARGV",
        "environment": environment(), "metrics": metrics, **extra,
        "failing_checks_by_name": dict(failed_checks),
    }
    print(json.dumps(report), flush=True)
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
