"""Fast self-check of the benchmark harness at tiny sizes (a few seconds).

    python3 bench/smoke.py

Run from the repository root. It checks that

- every workload, metric name and unit in BENCHMARK.json uses only the
  allowed characters, bench/layers.json maps exactly the per-layer
  metrics, and each function those metrics trace exists;
- a tiny workload passes every output check, and the untraced and traced
  runs produce every metric that BENCHMARK.json lists;
- each check fails when its reference is perturbed, and on a nonzero exit,
  a traceback, invalid JSON, a NaN and a verify line reporting FAIL.

Exits 0 and prints "smoke OK" when all of this holds.
"""

import copy
import json
import math
import os
import re
import sys

import run
import workloads as wl

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def expect(ok, what):
    if not ok:
        raise SystemExit(f"smoke FAILED: {what}")


def check_names(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        expect(NAME.fullmatch(name), f"name {name!r} has a character outside letters, digits, _ . -")
    expect(len(names) == len(set(names)), "a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.fullmatch(m["unit"]), f"unit {m['unit']!r} of {m['name']}")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS), "workload list")
    with open(os.path.join(run.BENCH_DIR, "layers.json")) as f:
        mapped = json.load(f)["layers"]
    expect(set(mapped) == {m["name"] for m in spec["per_layer"]}, "layers.json and per_layer differ")


def tiny_ops():
    fixed = {"phase_a": wl.FIXED_PHASE_A, "phase_b": wl.FIXED_PHASE_B}
    return [
        wl.simulate_op("measurement", 3, 3000, 11),
        wl.simulate_op("unified-collective", 2, 3000, 12, mixed_mode="full"),
        wl.simulate_op("measurement", 2, 3000, 13, **fixed),
        wl.simulate_op("unified-collective", 2, 3000, 14, mixed_mode="full", **fixed),
        wl.cli_op("curves", "--n-min", 1, "--n-max", 4),
        wl.cli_op("verify", "--n-max", 4),
        wl.cli_op("povm", "--n", 3, "--phase", "0.7"),
        wl.call_op("p_unified_collective_unequal", 2, 5000),
        wl.call_op("p_measurement", 300),
    ]


def perturbed(op, ref):
    """A reference the correct output must not match."""
    ref = copy.deepcopy(ref)
    if "sim" in op:
        return ref + 0.05
    if "func" in op:
        return ref * (1 + 1e-6)
    if op["id"] == "curves":
        ref[2][3] *= 1 + 1e-6
        return ref
    if op["id"] == "povm":
        ref[0][1] += 1e-6
        return ref
    return ref


def broken_outputs(op, out):
    """Outputs that must fail whatever the reference: (rc, stdout, stderr)."""
    cases = [(1, out, ""), (0, out, "Traceback (most recent call last):\n")]
    if "sim" in op:
        payload = json.loads(out)
        payload["report"]["mean_abs_fidelity_error"] = math.nan
        cases += [(0, json.dumps(payload), ""), (0, out[: len(out) // 2], "")]
    if op["id"] == "verify":
        cases.append((0, out + "FAIL povm-orthonormality-completeness: max deviation 1\n", ""))
    if op["id"] == "povm":
        cases.append((0, out.replace("[", "[NaN, ", 1), ""))
    if "func" in op:
        cases.append((0, "nan\n", ""))
    return cases


def check_outputs(ops, refs, checks, out_dir):
    """Run the workload process once and test every check on its real outputs."""
    _, result, outputs, crash = run.run_child(ops, "plain", out_dir, run.child_env())
    expect(result is not None, crash)
    for i, op in enumerate(ops):
        out = outputs[i][0].decode()
        expect(checks.check(op, refs[i], 0, out, "") == [], f"{op['id']} fails its exact reference")
        if op["id"] != "verify":
            expect(checks.check(op, perturbed(op, refs[i]), 0, out, ""),
                   f"{op['id']} passes a perturbed reference")
        for rc, bad, err in broken_outputs(op, out):
            expect(checks.check(op, refs[i], rc, bad, err), f"{op['id']} passes a broken output")


def check_traced_names(spec):
    """Every ``<module>.<function>.calls`` or ``.s`` metric names a public
    eqfid function, since run.py takes the traced functions from these names."""
    import eqfid.cli  # noqa: F401  (loads every eqfid module)
    import child

    known = set(child.public_functions().values())
    for m in spec["per_layer"]:
        stem, _, kind = m["name"].rpartition(".")
        if kind in ("calls", "s"):
            expect(stem in known, f"{m['name']} names no public eqfid function")


def main():
    expect(os.path.isfile(os.path.join(run.SRC_DIR, "eqfid", "__init__.py")), "run from the repository root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_names(spec)
    sys.path.insert(0, os.path.abspath(run.SRC_DIR))
    import checks

    ops = tiny_ops()
    oracle = checks.Oracle()
    refs = [checks.reference(op, oracle) for op in ops]
    check_traced_names(spec)
    with run.scratch_dir() as out_dir:
        check_outputs(ops, refs, checks, out_dir)
        runner = run.Runner(checks.check, refs, out_dir)
        measured = run.end_to_end(runner, ops, wl.setup_ops(ops), 0)
        measured.update(run.per_layer(runner, [m["name"] for m in spec["per_layer"]], ops, 0))
    expect(runner.failed == 0, f"tiny workload failed: {runner.failures}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(m["name"] in measured, f"metric {m['name']} is not produced")
    expect(all(measured[m["name"]] > 0 for m in spec["end_to_end"]), "an end-to-end metric reads 0")
    print(f"smoke OK: {len(ops)} operations, {runner.attempted} checked, "
          f"{len(spec['end_to_end']) + len(spec['per_layer'])} metrics")


if __name__ == "__main__":
    main()
