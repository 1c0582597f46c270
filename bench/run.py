"""eqfid benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload mc-uniform --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src``. Within
``--seconds`` the run alternates fresh processes (``bench/child.py``):

- ``--trace 0``: a set-up process (import plus each simulate command with
  one trial) and a workload process (every operation at full size), with a
  host-speed probe (``bench/probe.py``) before and after each. Their median
  wall times, each scaled by the probes around it to a host that runs the
  probe in PROBE_REF_S seconds, are ``setup_s`` and ``wall_s``. The scaling
  removes the drift of a shared host, whose speed changes by up to 60% over
  minutes; the unscaled medians are printed too.
- ``--trace 1``: one tracemalloc process, then untraced and span-traced
  workload processes, each followed by a probe. Medians of the span
  summaries, with seconds scaled like ``wall_s``, give the per-layer
  metrics; the median of each round's scaled traced over scaled untraced
  wall time gives ``trace.overhead``.

Every operation of every process is checked against an exact reference
(``checks.py``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics printed
and their units come from ``BENCHMARK.json``. Lines before it give the
environment, each operation's share of the workload's time, the SHA-256 of
every simulate report and each failure.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = "src"
OUT_ROOT = ".bench_out"
MIN_ROUNDS = 3
PROCESS_TIMEOUT_S = 120
# Timed metrics are scaled to a host that runs bench/probe.py in this many
# seconds, about what a 2-vCPU x86-64 host takes at full speed (0.27-0.32 s).
PROBE_REF_S = 0.3

SIMULATE_SPANS = ("montecarlo.simulate", "montecarlo.simulate_measurement", "montecarlo.simulate_unified")


def environment():
    """Versions and machine facts recorded with every result."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    commit = None
    if os.path.isdir(".git"):  # an exported checkout has none; never ask a parent directory
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "eqfid", "*.py"))):
        with open(path, "rb") as f:
            source.update(path.encode() + b"\0" + f.read())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under OUT_ROOT, removed with OUT_ROOT when empty."""
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(dir=OUT_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path)
        if not os.listdir(OUT_ROOT):
            os.rmdir(OUT_ROOT)


def child_env():
    """The environment of a workload process: ``src`` first on the path."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.abspath(SRC_DIR)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def run_child(ops, mode, out_dir, env):
    """Run ``ops`` in one fresh ``child.py`` process.

    Returns (wall seconds, result, outputs, crash): ``result`` is the
    process's result.json, ``outputs`` holds each operation's raw standard
    output (bytes) and standard error (text), and both are None, with
    ``crash`` saying why, when the process did not finish.
    """
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        spec = os.path.join(work, "spec.json")
        with open(spec, "w") as f:
            json.dump(ops, f)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"), spec, work, mode],
                                  env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
            crash = f"workload process exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        except subprocess.TimeoutExpired:
            crash = f"workload process killed after {PROCESS_TIMEOUT_S} s"
        wall = time.perf_counter() - start
        try:
            with open(os.path.join(work, "result.json")) as f:
                result = json.load(f)
        except (OSError, ValueError):
            return wall, None, None, crash
        outputs = []
        for i in range(len(ops)):
            with open(os.path.join(work, f"{i}.out"), "rb") as out, open(os.path.join(work, f"{i}.err")) as err:
                outputs.append((out.read(), err.read()))
    return wall, result, outputs, crash


class Runner:
    """Starts workload processes and host-speed probes, checks the outputs
    and keeps the samples."""

    def __init__(self, check, refs, out_dir):
        self.check, self.refs, self.out_dir = check, refs, out_dir
        self.attempted = self.failed = 0
        self.failures = []
        self.digests = {}
        self.probes = []
        self.env = child_env()

    def probe(self):
        """Time one host-speed probe process and keep its wall seconds."""
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(BENCH_DIR, "probe.py")], env=self.env,
                       check=True, timeout=PROCESS_TIMEOUT_S)
        self.probes.append(time.perf_counter() - start)

    def run(self, ops, mode, refs=None):
        """Run ``ops`` in one fresh process; returns (wall seconds, result).

        ``refs`` defaults to the workload's references, and only then are
        report digests recorded; set-up processes pass their own.
        """
        workload = refs is None
        refs = self.refs if workload else refs
        wall, result, outputs, crash = run_child(ops, mode, self.out_dir, self.env)
        for i, op in enumerate(ops):
            self.attempted += 1
            if result is None:
                reasons = [crash]
            else:
                raw, err = outputs[i]
                reasons = self.check(op, refs[i], result["ops"][i]["rc"], raw.decode(), err)
                if "sim" in op and not reasons and workload:
                    digest = hashlib.sha256(raw).hexdigest()
                    if self.digests.setdefault(op["id"], digest) != digest:
                        reasons = ["report differs from an earlier process at the same seed"]
                result["ops"][i]["bytes"] = len(raw)
            if reasons:
                self.failed += 1
                self.failures.append(f"{op['id']} ({mode}): {'; '.join(reasons)}")
        return wall, result

    def timed(self, ops, mode="plain", refs=None):
        """Run ``ops``, then a probe; returns (wall seconds, result, scale).

        A probe must have run just before. ``scale`` takes a time to a host
        that runs the probe in PROBE_REF_S seconds, from the mean of the two
        probes around the process, so that the host's speed, which drifts by
        tens of percent over minutes on a shared machine, cancels out.
        """
        wall, result = self.run(ops, mode, refs)
        self.probe()
        return wall, result, PROBE_REF_S / statistics.fmean(self.probes[-2:])


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runner, ops, setup, seconds):
    """Alternate probe, set-up process, probe, workload process, probe, ...
    and report the medians of the scaled times."""
    deadline = time.perf_counter() + seconds
    setup_refs = [0.0] * len(setup)
    runner.run(setup, "plain", setup_refs)  # warm-up: byte-compile, fill the page cache
    runner.probe()
    raw = {"wall_s": [], "setup_s": [], "work_per_s": []}
    scaled = {name: [] for name in raw}
    op_seconds = [[] for _ in ops]
    rss = []
    while len(rss) < MIN_ROUNDS or time.perf_counter() < deadline:
        setup_wall, _, scale = runner.timed(setup, refs=setup_refs)
        raw["setup_s"].append(setup_wall)
        scaled["setup_s"].append(setup_wall * scale)
        wall, result, scale = runner.timed(ops)
        if result is None:
            break
        rate = sum(map(workloads.work_units, ops)) / sum(r["s"] for r in result["ops"])
        raw["wall_s"].append(wall)
        scaled["wall_s"].append(wall * scale)
        raw["work_per_s"].append(rate)
        scaled["work_per_s"].append(rate / scale)
        for times, r in zip(op_seconds, result["ops"]):
            times.append(r["s"] * scale)
        rss.append(result["maxrss_kb"] * 1024 / 1e6)
    print(f"host probe median {median(runner.probes):.4f} s (reference {PROBE_REF_S} s); unscaled medians: "
          + ", ".join(f"{name} {median(values):.6g}" for name, values in raw.items()))
    op_medians = [median(times) for times in op_seconds]
    for op, seconds_op in zip(ops, op_medians):
        print(f"operation {op['id']}: {seconds_op:.4f} s scaled, "
              f"{seconds_op / (sum(op_medians) or 1):.1%} of the operations' time")
    return {
        **{name: median(values) for name, values in scaled.items()},
        "peak_rss_mb": median(rss),
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
    }


def layer_metrics(names, spans, ops, result, scale):
    """The per-layer metrics ``names`` of one span-traced process, seconds
    multiplied by ``scale``.

    Besides the named ones below, ``<module>.<function>.calls`` and ``.s``
    are the calls and seconds of that function's spans, and
    ``<module>.self_s`` is the self time of all the module's spans.
    """
    def self_s(span_names):
        return sum(spans[n][2] for n in span_names if n in spans) * scale

    trials = sum(op["sim"]["trials"] for op in ops if "sim" in op)
    simulate_self = self_s(SIMULATE_SPANS)
    metrics = {
        "montecarlo.simulate.self_s": simulate_self,
        "montecarlo.trials": trials,
        "montecarlo.self_ns_per_trial": simulate_self / trials * 1e9 if trials else 0.0,
        "cli.main.self_s": self_s([n for n in spans if n.startswith("cli.")]),
        "cli.output_bytes": sum(r["bytes"] for op, r in zip(ops, result["ops"]) if "argv" in op),
    }
    for name in names:
        stem, _, kind = name.rpartition(".")
        if name in metrics:
            continue
        if kind == "calls":
            metrics[name] = spans.get(stem, [0])[0]
        elif kind == "s":
            metrics[name] = spans.get(stem, [0, 0.0])[1] * scale
        elif kind == "self_s" and "." not in stem:
            metrics[name] = self_s([n for n in spans if n.startswith(stem + ".")])
    return metrics


def per_layer(runner, names, ops, seconds):
    """Alternate probe, untraced process, probe, span-traced process, probe,
    ... after one tracemalloc process, and report the medians.

    ``trace.overhead`` is the median of each round's ratio of scaled wall
    times. On the Monte Carlo workloads the tracer records about a hundred
    spans, so the true overhead is below the few percent by which that
    median varies, and it can read just under 1.
    """
    deadline = time.perf_counter() + seconds
    _, memory = runner.run(ops, "memory")
    runner.probe()
    overhead, samples = [], []
    while len(samples) < MIN_ROUNDS or time.perf_counter() < deadline:
        wall, result, scale = runner.timed(ops)
        wall_traced, result_traced, scale_traced = runner.timed(ops, "spans")
        if result is None or result_traced is None:
            break
        overhead.append(wall_traced * scale_traced / (wall * scale))
        samples.append(layer_metrics(names, result_traced["spans"], ops, result_traced, scale_traced))
    metrics = {name: median([s[name] for s in samples]) for name in (samples[0] if samples else {})}
    metrics["montecarlo.simulate.peak_mb"] = memory["simulate_peak_bytes"] / 1e6 if memory else 0.0
    metrics["trace.overhead"] = median(overhead)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "eqfid", "__init__.py")):
        print(f"error: no package at {SRC_DIR}/eqfid; run from the repository root", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    sys.path.insert(0, os.path.abspath(SRC_DIR))
    import checks

    ops = workloads.build(args.workload, args.seed)
    setup = workloads.setup_ops(ops)
    oracle = checks.Oracle()
    refs = [checks.reference(op, oracle) for op in ops]

    print(f"eqfid benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment()))
    with scratch_dir() as out_dir:
        runner = Runner(checks.check, refs, out_dir)
        if args.trace:
            wanted = spec["per_layer"]
            measured = per_layer(runner, [m["name"] for m in wanted], ops, args.seconds)
        else:
            wanted = spec["end_to_end"]
            measured = end_to_end(runner, ops, setup, args.seconds)

    for op_id, digest in runner.digests.items():
        print(f"report sha256 {op_id} {digest}")
    for failure in runner.failures[:20]:
        print(f"FAIL {failure}")
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], 0.0)  # absent only when no process completed
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:48s} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
