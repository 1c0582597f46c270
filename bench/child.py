"""One workload process: import eqfid and run a list of operations.

    python3 bench/child.py SPEC_JSON OUT_DIR MODE

SPEC_JSON holds the operations made by ``workloads.build``. The output of
operation i goes to OUT_DIR/i.out and OUT_DIR/i.err, as a user's shell would
redirect it, and OUT_DIR/result.json receives exit codes, per-operation
times and the peak resident memory. MODE is one of

- ``plain``: no instrumentation, for end-to-end timing;
- ``spans``: every public eqfid function is wrapped in every eqfid module
  namespace that binds it, and each call records a span;
- ``memory``: only ``montecarlo.simulate`` is wrapped, with tracemalloc
  running inside it, for its peak traced memory.
"""

import contextlib
import functools
import inspect
import json
import os
import resource
import sys
import time
import traceback

clock = time.perf_counter


class Tracer:
    """Spans (name, start, end, parent) of every call of a wrapped function,
    kept in memory and summarised when the process ends."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = [-1]

    def wrap(self, name, fn):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def summary(self):
        """{name: [calls, seconds, self seconds]}.

        Seconds count only calls with no caller of the same name, so a
        re-entrant function is not counted twice; self seconds subtract the
        time of every child span.
        """
        n = len(self.starts)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += duration[i]
        out = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[2] += duration[i] - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                entry[1] += duration[i]
        return out


def eqfid_modules():
    return [m for name, m in sys.modules.items() if name == "eqfid" or name.startswith("eqfid.")]


def public_functions():
    """Every public function defined in an eqfid module, by defining module."""
    found = {}
    for module in eqfid_modules():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__.startswith("eqfid.") and not attr.startswith("_"):
                found[obj] = f"{obj.__module__[len('eqfid.'):]}.{obj.__name__}"
    return found


def install(wrappers):
    """Rebind each wrapped function in every eqfid namespace that binds it,
    since ``from .x import y`` copies the name into the importing module."""
    for module in eqfid_modules():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])


def memory_wrapper(fn, peaks):
    import tracemalloc

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    return measured


def run_op(cli, eqfid, op, out_path, err_path):
    """Run one operation with its output redirected; returns the exit code."""
    with open(out_path, "w") as out, open(err_path, "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if "argv" in op:
                return cli.main(op["argv"])
            print(repr(float(getattr(eqfid, op["func"])(*op["args"]))))
            return 0
        except SystemExit as exc:
            return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1


def main(spec_path, out_dir, mode):
    with open(spec_path) as f:
        ops = json.load(f)
    import eqfid
    import eqfid.cli as cli

    tracer, peaks = None, []
    if mode == "spans":
        tracer = Tracer()
        install({fn: tracer.wrap(name, fn) for fn, name in public_functions().items()})
    elif mode == "memory":
        simulate = eqfid.montecarlo.simulate
        install({simulate: memory_wrapper(simulate, peaks)})
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")

    results = []
    for i, op in enumerate(ops):
        t0 = clock()
        rc = run_op(cli, eqfid, op, os.path.join(out_dir, f"{i}.out"), os.path.join(out_dir, f"{i}.err"))
        results.append({"rc": rc, "s": clock() - t0})

    result = {
        "ops": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.summary() if tracer else None,
        "simulate_peak_bytes": max(peaks, default=0),
    }
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(*sys.argv[1:])
