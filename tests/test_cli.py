import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqfid import montecarlo, povm, strategies, verify
from eqfid.cli import main
from eqfid.cloning import mean_fidelity_closed
from eqfid.montecarlo import TrialConfig, TrialReport
from eqfid.numerics import BASIS_CAP
from eqfid.povm import outcome_distribution
from eqfid.strategies import StrategyCurvePoint, p_measurement, p_unified_pair


def run(args):
    return main(args)


# --- curves ---------------------------------------------------------------

def test_curves_single_row(tmp_path):
    out = tmp_path / "curves.csv"
    assert run(["curves", "--n-min", "1", "--n-max", "1", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header.startswith("N,f_bar,f_eqcm,f_cnot,f_gcnot,p_measurement")
    fields = row.split(",")
    assert fields[0] == "1"
    assert float(fields[1]) == 0.75
    assert float(fields[5]) == 0.5625
    assert abs(float(fields[7]) - 0.6401650429449552) < 1e-15


def test_curves_row_count_and_line_endings(tmp_path):
    out = tmp_path / "curves.csv"
    assert run(["curves", "--n-min", "1", "--n-max", "10", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().count("\n") == 11  # header + 10 rows, trailing newline
    assert len(raw.decode().splitlines()) == 11


def test_curves_csv_roundtrip_exact(tmp_path):
    out = tmp_path / "curves.csv"
    assert run(["curves", "--n-min", "1", "--n-max", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    for line in lines:
        fields = line.split(",")
        n = int(fields[0])
        assert float(fields[1]) == mean_fidelity_closed(n)
        assert float(fields[5]) == p_measurement(n)
        assert float(fields[7]) == p_unified_pair(n)


def test_curves_json(tmp_path):
    out = tmp_path / "curves.json"
    assert run(
        ["curves", "--n-min", "1", "--n-max", "10", "--format", "json", "--out", str(out)]
    ) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 10
    assert rows[0]["n"] == 1
    assert rows[0]["p_measurement"] == 0.5625


def test_curves_invalid_range_exits_2(capsys):
    assert run(["curves", "--n-min", "5", "--n-max", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_curves_unwritable_path_exits_3():
    assert run(
        ["curves", "--n-min", "1", "--n-max", "2", "--out", "/nonexistent/dir/x.csv"]
    ) == 3


def test_curves_gnuplot_script(tmp_path):
    out = tmp_path / "fig.csv"
    assert run(
        ["curves", "--n-min", "1", "--n-max", "5", "--out", str(out), "--gnuplot"]
    ) == 0
    script = (tmp_path / "fig.gp").read_text()
    assert "fig.csv" in script
    assert "plot" in script
    # Each plotted column is its curve's position in the CSV header.
    header = out.read_text().splitlines()[0].split(",")
    plotted = re.findall(r"using 1:(\d+) .* title '([a-z ]+)'", script)
    assert [(header[int(col) - 1], title) for col, title in plotted] == [
        ("p_measurement", "measurement"), ("p_unified_collective", "collective unified")]


def test_curves_gnuplot_requires_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["curves", "--n-min", "1", "--n-max", "3", "--gnuplot"]) == 2
    assert run(
        ["curves", "--n-min", "1", "--n-max", "3", "--format", "json", "--out", "t.json",
         "--gnuplot"]
    ) == 2
    # The script would overwrite the CSV it plots.
    assert run(["curves", "--n-min", "1", "--n-max", "3", "--out", "plot.gp", "--gnuplot"]) == 2
    # The flag combination is rejected before anything is written.
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_env_out_dir_prefixes_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("EQFID_OUT_DIR", str(tmp_path))
    assert run(["curves", "--n-min", "1", "--n-max", "1", "--out", "sub.csv"]) == 0
    assert (tmp_path / "sub.csv").exists()


# --- simulate ---------------------------------------------------------------

def test_simulate_reports_and_is_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = [
        "simulate",
        "--strategy",
        "measurement",
        "--n",
        "1",
        "--trials",
        "50000",
        "--seed",
        "42",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["config"]["phase_a"] == "uniform"
    report = payload["report"]
    assert abs(report["mean_overlap_product"] - 0.5625) < 0.01
    assert report["analytic_probability"] == 0.5625
    assert sum(report["tallies"]["ensemble_a"]) == 50000


def test_simulate_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert run(
        [
            "simulate",
            "--strategy",
            "unified-collective",
            "--n",
            "2",
            "--trials",
            "2000",
            "--seed",
            "7",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    ) == 0
    header, row = out.read_text().splitlines()
    assert header.startswith("strategy,n_copies,trials,seed,mixed_mode")
    assert row.startswith("unified-collective,2,2000,7,analytic,uniform,uniform,")


def test_simulate_fixed_phases_echoed(tmp_path):
    out = tmp_path / "r.json"
    assert run(
        [
            "simulate",
            "--strategy",
            "measurement",
            "--n",
            "1",
            "--trials",
            "10",
            "--seed",
            "1",
            "--phase-a",
            "0.5",
            "--phase-b",
            "1.5",
            "--out",
            str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["phase_a"] == 0.5
    assert payload["config"]["phase_b"] == 1.5


def test_simulate_degrees_flag(tmp_path):
    out = tmp_path / "r.json"
    assert run(
        [
            "simulate",
            "--strategy",
            "measurement",
            "--n",
            "1",
            "--trials",
            "10",
            "--seed",
            "1",
            "--phase-a",
            "90",
            "--phase-b",
            "uniform",
            "--degrees",
            "--out",
            str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["config"]["phase_a"] - math.pi / 2) < 1e-12
    assert payload["config"]["phase_b"] == "uniform"


def test_simulate_usage_errors():
    base = ["simulate", "--strategy", "measurement", "--n", "1", "--seed", "1"]
    assert run(base + ["--trials", "0"]) == 2
    assert (
        run(
            [
                "simulate",
                "--strategy",
                "unified-collective",
                "--n",
                str(BASIS_CAP + 1),
                "--trials",
                "10",
                "--mixed-mode",
                "full",
            ]
        )
        == 2
    )


@pytest.mark.parametrize("degrees", [[], ["--degrees"]])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_phases_exit_2(raw, degrees, capsys):
    simulate = ["simulate", "--strategy", "measurement", "--n", "1", "--trials", "10"]
    # "--flag=value" lets argparse take "-inf" as a value, not an option
    for flag in ("--phase-a", "--phase-b"):
        assert run(simulate + [f"{flag}={raw}"] + degrees) == 2
    assert run(["povm", "--n", "1", f"--phase={raw}"] + degrees) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("phase must be finite") == 3


def test_simulate_unknown_strategy_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--strategy", "bogus", "--n", "1", "--trials", "10"])
    assert exc.value.code == 2


# --- povm -------------------------------------------------------------------

def test_povm_basis_phase(capsys):
    assert run(["povm", "--n", "1", "--phase", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["probabilities"][0] - 1.0) < 1e-12
    assert abs(payload["probabilities"][1]) < 1e-12
    assert payload["estimated_phases"] == [0.0, math.pi]


def test_povm_balanced_phase(capsys):
    assert run(["povm", "--n", "1", "--phase", "1.5707963268"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["probabilities"][0] - 0.5) < 1e-9
    assert abs(payload["probabilities"][1] - 0.5) < 1e-9


def test_povm_probabilities_sum_to_one(capsys):
    for n, phase in ((3, "0.77"), (8, "5.1")):
        assert run(["povm", "--n", str(n), "--phase", phase]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(sum(payload["probabilities"]) - 1.0) < 1e-10


def test_povm_degrees(capsys):
    assert run(["povm", "--n", "1", "--phase", "90", "--degrees"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["probabilities"][0] - 0.5) < 1e-12


def test_povm_echoes_the_evaluated_phase(capsys):
    # The law is evaluated at the phase reduced into [0, 2 pi), and that is
    # the phase the JSON names, as in simulate's config block.
    for raw, echoed in (("7", 7 - 2 * math.pi), ("-0.0", 0.0), ("2.5", 2.5)):
        assert run(["povm", "--n", "3", f"--phase={raw}"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phase"] == echoed and math.copysign(1.0, payload["phase"]) == 1.0
        assert payload["probabilities"] == outcome_distribution(3, echoed).tolist()
    assert run(["povm", "--n", "1", "--phase", "450", "--degrees"]) == 0
    assert json.loads(capsys.readouterr().out)["phase"] == math.radians(450) - 2 * math.pi


def test_povm_csv(capsys):
    assert run(["povm", "--n", "2", "--phase", "0", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "outcome,probability,estimated_phase"
    assert len(lines) == 4


def test_povm_invalid_n_exits_2():
    assert run(["povm", "--n", "0", "--phase", "0"]) == 2


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"invalid JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_n_past_uint64_binomials_runs(capsys):
    # C(68, 34) > 2^64: the Dicke weights must not reach numpy as Python ints.
    assert run(["simulate", "--strategy", "measurement", "--n", "68", "--trials", "200"]) == 0
    report = _strict_json(capsys.readouterr().out)["report"]
    assert 0.0 < report["mean_overlap_product"] <= 1.0
    assert run(["povm", "--n", "68", "--phase", "0.3"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert abs(sum(payload["probabilities"]) - 1.0) < 1e-10


def test_n_at_basis_cap_runs(capsys):
    # The whole accepted range runs, past N = 1024 where S_N leaves float range.
    assert run(["povm", "--n", str(BASIS_CAP), "--phase", "0.3"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert abs(sum(payload["probabilities"]) - 1.0) < 1e-10
    for strategy in ("measurement", "unified-collective"):
        args = ["simulate", "--strategy", strategy, "--n", str(BASIS_CAP), "--trials", "200"]
        assert run(args) == 0
        report = _strict_json(capsys.readouterr().out)["report"]
        assert 0.0 < report["analytic_probability"] <= 1.0
    # The full-mixed law at the cap is a handful of correlations, not O(N^3).
    for strategy in ("unified-pair", "unified-collective"):
        args = ["simulate", "--strategy", strategy, "--n", str(BASIS_CAP), "--trials", "200",
                "--mixed-mode", "full"]
        assert run(args) == 0
        report = _strict_json(capsys.readouterr().out)["report"]
        assert 0.0 < report["mean_overlap_product"] <= 1.0
        if strategy == "unified-pair":
            # The pair gate's symmetric weight, (N+1) c_0, is below 1e-70
            # here: every trial is perp, and none may wrap into slot 0.
            assert report["perp_probability"] == 1.0
        else:
            assert 0.0 <= report["perp_probability"] < 1.0


def test_n_past_basis_cap_exits_2(capsys):
    # One N bound covers every law: povm, analytic and full-mixed simulate.
    simulate = ["simulate", "--strategy", "unified-collective", "--trials", "10"]
    for n in (BASIS_CAP + 1, 10**8):
        for args in (
            ["povm", "--n", str(n)],
            simulate + ["--n", str(n)],
            simulate + ["--n", str(n), "--mixed-mode", "full"],
        ):
            assert run(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert str(BASIS_CAP) in captured.err and str(n) in captured.err
            assert "Traceback" not in captured.err


def test_unallocatable_trial_count_exits_2(capsys):
    # Memory per trial is O(1), so 10^15 trials would run for weeks: the
    # trial bound refuses them before any work.
    args = ["simulate", "--strategy", "measurement", "--n", "1", "--trials", "1000000000000000"]
    start = time.perf_counter()
    assert run(args) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert str(montecarlo.TRIALS_CAP) in captured.err and "1000000000000000" in captured.err


def test_memory_error_in_a_worker_block_exits_2(monkeypatch, capsys):
    # A block past the first range runs on a worker thread; its exception
    # must reach main, not a thread's excepthook.
    raised = []
    exact_sum = montecarlo._exact_sum

    def failing(values, *scratch):
        if threading.current_thread() is not threading.main_thread():
            raised.append(True)
            raise MemoryError("cannot allocate the block")
        return exact_sum(values, *scratch)

    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    monkeypatch.setattr(montecarlo, "_exact_sum", failing)
    threads = threading.active_count()
    args = ["simulate", "--strategy", "measurement", "--n", "1",
            "--trials", str(3 * montecarlo.BLOCK)]
    assert run(args) == 2
    assert raised
    assert threading.active_count() == threads
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot allocate the block\n"

    # Each range allocates its workspace before its first block; a failure
    # there must take the same way out.
    workspace = montecarlo._workspace

    def unallocatable(rows):
        if threading.current_thread() is not threading.main_thread():
            raised.append(rows)
            raise MemoryError("cannot allocate the workspace")
        return workspace(rows)

    monkeypatch.setattr(montecarlo, "_exact_sum", exact_sum)
    monkeypatch.setattr(montecarlo, "_workspace", unallocatable)
    raised.clear()
    assert run(args) == 2
    assert raised == [montecarlo.BLOCK]
    assert threading.active_count() == threads
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot allocate the workspace\n"


# --- verify -------------------------------------------------------------------

def test_verify_passes(capsys):
    start = time.perf_counter()
    assert run(["verify", "--n-max", "30"]) == 0
    assert time.perf_counter() - start < 60.0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) >= 6
    assert all(l.startswith("PASS ") for l in lines)


def shifted(offset):
    """A fault: every value the function returns moved by offset."""
    return lambda original: lambda *args: original(*args) + offset


def basis_entry_at_3(original):
    """A fault: one entry of the N = 3 basis moved by 1e-9."""
    def basis(n):
        b = original(n)
        if n == 3:
            b[1, 2] += 1e-9
        return b
    return basis


def law_row_at_3(original):
    """A fault: one outcome-law row of the N = 3 quadrature moved by 1e-9;
    the mean fidelity it returns is left as it is."""
    def quadrature(n, phases=()):
        rows, fidelity = original(n, phases)
        if n == 3:
            rows[1] += 1e-9
        return rows, fidelity
    return quadrature


@pytest.mark.parametrize(
    "module, name, fault, failing",
    [
        (strategies, "p_cloning", shifted(1e-9), "measurement-cloning-equivalence"),
        # Above 1 at every N, yet still increasing and above measurement.
        (strategies, "p_unified_collective", shifted(0.6), "strategy-probabilities-in-range"),
        # Every outcome row off by 1e-11: past the basis check's 1e-12, while
        # the numeric mean fidelity moves by under its 1e-10 tolerance.
        (povm, "covariant_rows", shifted(1e-11), "povm-orthonormality-completeness"),
        # Every entry of the basis verify reads off by 1e-11, which moves its
        # Gram products by 1e-11 sqrt(N + 1): past the same 1e-12.
        (verify, "povm_basis", shifted(1e-11), "povm-orthonormality-completeness"),
        # One entry, or one law row, at one N is enough to fail the check.
        (verify, "povm_basis", basis_entry_at_3, "povm-orthonormality-completeness"),
        (verify, "_fidelity_quadrature", law_row_at_3, "povm-orthonormality-completeness"),
        # The N = 2 tie is exact: pair probabilities moved by 1e-13 break it,
        # and only it.
        (strategies, "p_unified_pair", shifted(1e-13), "pairwise-crossover"),
    ],
    ids=["equivalence", "range", "outcome-law", "povm-basis", "povm-basis-entry",
         "outcome-law-row", "pair-tie"],
)
def test_verify_fails_only_the_broken_claim(module, name, fault, failing, capsys, monkeypatch):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert run(["verify", "--n-max", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    failed = [l for l in lines if not l.startswith("PASS ")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL {failing}: "), failed


def test_verify_equivalence_compares_two_computations(capsys):
    # p_cloning is held to the outcome-law quadrature squared, which rounds
    # differently from the closed form; a check that compares two roundings
    # of one expression reads 0 and cannot fail.
    assert run(["verify", "--n-max", "60"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("PASS measurement-cloning-equivalence: "))
    worst = float(line.split("| ")[1].split()[0])
    assert 0.0 < worst <= 2e-10


@pytest.mark.parametrize(
    "n_max, detail",
    [
        (1, "advantage at N=1"),
        (2, "advantage at N=1, tie at N=2"),
        (3, "advantage at N=1, tie at N=2, reversal at N=3"),
        (60, "advantage at N=1, tie at N=2, reversal for N=3..60"),
    ],
)
def test_verify_crossover_names_only_the_checked_n(n_max, detail, capsys):
    assert run(["verify", "--n-max", str(n_max)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"PASS pairwise-crossover: {detail}" in lines


def test_verify_invalid_n_max_exits_2():
    assert run(["verify", "--n-max", "0"]) == 2
    assert run(["verify", "--n-max", "61"]) == 2


def test_module_entry_point_exit_codes(tmp_path):
    # python -m eqfid runs __main__.py, whose sys.exit carries main's code.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("EQFID_OUT_DIR", None)

    def eqfid(*args):
        return subprocess.run([sys.executable, "-m", "eqfid", *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)

    assert eqfid("verify", "--n-max", "3").returncode == 0
    refused = eqfid("simulate", "--strategy", "measurement", "--n", "0", "--trials", "1")
    assert refused.returncode == 2
    assert refused.stderr == "error: n_copies must lie in 1..1029, got 0\n"
    unknown = eqfid("verify", "--no-such-flag")
    assert unknown.returncode == 2 and "Traceback" not in unknown.stderr
    missing = tmp_path / "missing" / "x.csv"
    assert eqfid("curves", "--n-min", "1", "--n-max", "2", "--out", str(missing)).returncode == 3


# --- the whole input domain ---------------------------------------------------

# Phases as the shell passes them: any float's repr (NaN and both infinities
# included), the word uniform, or junk. "--flag=value" hands argparse even a
# value that starts with "-" as a value.
PHASES = st.one_of(st.floats().map(repr), st.just("uniform"), st.text(max_size=8))
COUNTS = st.integers(-2, BASIS_CAP + 2)
SIMULATE_ARGV = st.builds(
    lambda strategy, mode, n, trials, seed, a, b, degrees: [
        "simulate", f"--strategy={strategy}", f"--mixed-mode={mode}", f"--n={n}",
        f"--trials={trials}", f"--seed={seed}", f"--phase-a={a}", f"--phase-b={b}",
        "--format=json", *(["--degrees"] if degrees else [])],
    st.sampled_from(montecarlo.STRATEGIES), st.sampled_from(montecarlo.MIXED_MODES), COUNTS,
    st.integers(-1, 64), st.integers(-1, 2**70), PHASES, PHASES, st.booleans())
POVM_ARGV = st.builds(
    lambda n, phase, degrees: ["povm", f"--n={n}", f"--phase={phase}", "--format=json",
                               *(["--degrees"] if degrees else [])],
    COUNTS, PHASES, st.booleans())
CURVES_ARGV = st.builds(
    lambda lo, hi: ["curves", f"--n-min={lo}", f"--n-max={hi}", "--format=json"],
    st.integers(-2, 70), st.integers(-2, 70))


def _documented_keys(command: str, payload) -> bool:
    if command == "simulate":
        return (list(payload) == ["config", "report"]
                and list(payload["config"]) == [f.name for f in fields(TrialConfig)]
                and list(payload["report"]) == [f.name for f in fields(TrialReport)])
    if command == "povm":
        return list(payload) == ["n_copies", "phase", "probabilities", "estimated_phases"]
    names = ["n", *[f.name for f in fields(StrategyCurvePoint)][1:]]
    return len(payload) > 0 and all(list(row) == names for row in payload)


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(SIMULATE_ARGV, POVM_ARGV, CURVES_ARGV))
def test_every_input_answers_or_exits_2(argv):
    # Each input either answers with JSON of the documented keys, or is
    # refused with exit code 2: one "error:" line from main, or argparse's
    # usage error. No input may end in a traceback, NaN or invalid JSON.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("usage", exc.code)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
        assert _documented_keys(argv[0], json.loads(out, parse_constant=_reject)), (argv, out)
    elif code == 2:
        assert out == "", (argv, out)
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    else:
        assert code == ("usage", 2) and out == "", (argv, code, out, err)
