"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

import quditmagic as qm  # noqa: E402
import quditmagic.cli  # noqa: E402
from quditmagic.phasespace import Dims  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


# ---------------------------------------------------------------------------
# wrappers

def test_wrapper_returns_exactly_what_the_function_returns():
    sentinel = object()
    tracer = layers.Tracer()
    wrapped = tracer.wrap("measures.fake", lambda x, y=2: (sentinel, x, y))
    assert wrapped(1, y=3) == (sentinel, 1, 3) and wrapped(1)[0] is sentinel
    assert tracer.calls["measures.fake"] == 2


def test_wrapper_propagates_exceptions_and_still_counts():
    tracer = layers.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("measures.boom", boom)()
    assert tracer.calls["measures.boom"] == 1


def test_speed_factor_scales_every_reported_time():
    fake = run.Run("large-d-cold")
    fake.setups, fake.walls, fake.rss_mb = [0.5], [4.0], [100.0]
    fake.passes = [[["sre 2,6", 1.0, True], ["xi2_expansion 2,4", 3.0, True]]]
    fake.kernel_s = [speed.REFERENCE_S / 2] * 3      # the machine ran twice as fast
    fake.spawn_kernel_s = [speed.REFERENCE_S / 4]    # and four times as fast at set-up
    metrics, extra = run.end_to_end(fake), run.details(fake)
    assert metrics["setup_s"] == 2.0 and metrics["wall_s"] == 8.0
    assert metrics["ops_per_s"] == 0.25 and extra["sre_2x6_s"] == 2.0
    assert metrics["peak_rss_mb"] == 100.0


def test_self_time_excludes_wrapped_children():
    tracer = layers.Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])   # outer start, inner start, inner end, outer end
    inner = tracer.wrap("weyl.inner", lambda: "inner")
    outer = tracer.wrap("measures.outer", lambda: inner())
    real = layers.time.perf_counter
    layers.time.perf_counter = lambda: next(clock)
    try:
        assert outer() == "inner"
    finally:
        layers.time.perf_counter = real
    assert tracer.self_s["weyl.inner"] == 2.0
    assert tracer.self_s["measures.outer"] == 8.0


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import quditmagic.measures as measures

    original = measures.pauli_distribution
    dims = Dims(3, 2)
    psi = workloads.haar_state(np.random.default_rng(0), dims.D)
    before = (qm.sre(psi, dims), qm.pauli_distribution(psi, dims).probs)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert measures.pauli_distribution is not original
        assert qm.pauli_distribution is measures.pauli_distribution
        after = (qm.sre(psi, dims), qm.pauli_distribution(psi, dims).probs)
        with tracer.paused():
            qm.sre(psi, dims)
    finally:
        tracer.uninstall()
    assert measures.pauli_distribution is original and qm.pauli_distribution is original
    assert after[0] == before[0] and np.array_equal(after[1], before[1])
    assert tracer.calls["measures.pauli_distribution"] == 2   # sre's call and the direct one
    metrics = layers.finalize(layers.merge([tracer.raw()]))
    assert metrics["measures.pauli_distribution.calls"] == 2


# ---------------------------------------------------------------------------
# checks reject perturbed results

def _perturbed(out: dict, key: str, delta: float = 1e-6) -> dict:
    return dict(out, **{key: out[key] + delta})


@pytest.mark.parametrize("pick", ["haar", "catalog"])
def test_scan_check_rejects_each_perturbed_measure(pick):
    states = [s for s in workloads.scan_states(3)
              if s.dims == Dims(3, 1) and s.name.startswith(pick)]
    s = states[0] if pick == "haar" else next(x for x in states if x.catalog_name == "qutrit:S")
    out = workloads.scan_bundle(s)
    assert workloads.check_scan(s, out) == []
    for key in ("F", "M2", "M3", "mixed_M2", "mana"):
        assert workloads.check_scan(s, _perturbed(out, key)), key
    assert workloads.check_scan(s, dict(out, nearest=out["nearest"] + 1))


@pytest.fixture(scope="module")
def frame():
    dims = Dims(3, 1)
    rng = np.random.default_rng(5)
    base = workloads.haar_state(rng, dims.D)
    direction = workloads.haar_state(rng, dims.D)
    direction = direction - np.vdot(base, direction) * base
    return qm.PerturbationFrame(dims, base, direction / np.linalg.norm(direction))


def test_cold_checks_reject_perturbed_results(frame):
    dims, psi = frame.dims, frame.base
    m2 = qm.sre(psi, dims)
    assert workloads.check_sre(m2, psi, dims) == []
    assert workloads.check_sre(m2 + 1e-6, psi, dims)

    P = qm.pauli_distribution(psi, dims).probs
    assert workloads.check_pauli(P, dims) == []
    assert workloads.check_pauli(P * (1 + 1e-6), dims)

    w = qm.wigner_trace_norm(psi, dims)
    assert workloads.check_wigner_norm(w, psi, dims) == []
    assert workloads.check_wigner_norm(w + 1e-6, psi, dims)

    coeffs = qm.xi2_expansion(frame)
    assert workloads.check_xi2(coeffs, frame) == []
    for k in (0, 1):
        bad = coeffs.copy()
        bad[k] += 1e-6
        assert workloads.check_xi2(bad, frame), k

    report = qm.classify_xi2(coeffs)
    assert workloads.check_classify_xi2(report, coeffs) == []
    bad = type(report)(report.measure, report.kind, report.leading_order,
                       report.leading_coefficient + 1e-6)
    assert workloads.check_classify_xi2(bad, coeffs)


def _shift(report, delta=1e-6, kind=None):
    return type(report)(report.measure, kind or report.kind, report.leading_order,
                        report.leading_coefficient + delta)


def test_expansion_checks_reject_perturbed_reports(frame):
    mana = qm.classify_mana(frame)
    assert workloads.check_classify_mana(mana, frame) == []
    assert workloads.check_classify_mana(_shift(mana), frame)
    assert workloads.check_classify_mana(_shift(mana, 0.0, "flat"), frame)

    fid = qm.fidelity_expansion(frame, qm.enumerate_stabilizer_states(frame.dims))
    assert workloads.check_fidelity_expansion(fid, frame) == []
    assert workloads.check_fidelity_expansion(_shift(fid), frame)
    assert workloads.check_fidelity_expansion(_shift(fid, 0.0, "smooth_max"), frame)


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert quditmagic.cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def cli_outputs():
    commands = dict(workloads.cli_commands(seed=4))
    wanted = ["eigenstates 3,1", "catalog verify", "extent 2q:G20,1",
              "search 2q:G20,1->2q:G20,2", "search prod:0,2q:G20,4->3q:Wi", "distill sweep"]
    return {name: _cli(commands[name]) for name in wanted}


def test_cli_checks_accept_the_real_outputs(cli_outputs):
    for name, stdout in cli_outputs.items():
        assert workloads.check_cli(name, 0, stdout) == [], name
        assert workloads.check_cli(name, 1, stdout), name


def test_cli_checks_reject_perturbed_outputs(cli_outputs):
    def perturbed(name, edit):
        payload = json.loads(cli_outputs[name])
        edit(payload)
        return workloads.check_cli(name, 0, json.dumps(payload))

    assert perturbed("eigenstates 3,1", lambda p: p.pop())
    assert perturbed("catalog verify", lambda p: p.update(failures=1))
    assert perturbed("extent 2q:G20,1", lambda p: p.update(duality_gap=1e-6))
    for name in ("search 2q:G20,1->2q:G20,2", "search prod:0,2q:G20,4->3q:Wi"):
        assert perturbed(name, lambda p: p.update(word=p["word"][1:]))
        assert perturbed(name, lambda p: p.update(found=False))
    for key in ("p_success", "eps3"):
        assert perturbed("distill sweep",
                         lambda p: p[3]["trajectory"][0].update({key: p[3]["trajectory"][0][key] + 1e-8}))
    assert workloads.check_cli("catalog verify", 0, "not json")


# ---------------------------------------------------------------------------
# metric names and BENCHMARK.json

def test_benchmark_json_lists_every_metric_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.metric_specs()
    fake = run.Run("large-d-cold")
    fake.kernel_s = fake.spawn_kernel_s = [speed.REFERENCE_S]   # speed factor 1
    fake.setups, fake.walls, fake.rss_mb = [0.5, 0.6], [4.0, 4.2], [100.0]
    fake.passes = [[["sre 2,6", 1.0, True], ["xi2_expansion 2,4", 2.0, True]]] * 2
    assert list(run.end_to_end(fake)) == [m["name"] for m in SPEC["end_to_end"]]
    details = run.details(fake)
    assert details == {"fail_frac": 0.0, "sre_2x6_s": 1.0, "xi2_2x4_s": 2.0}
    assert set(run.DETAIL_UNITS) == {"fail_frac", "op_p90_ms", *run.DETAILS}
    assert all(0 <= bound <= 0.25 for *_, bound in [*run.DETAILS.values(), run.FAIL_FRAC, run.OP_P90])
    assert not set(run.DETAIL_UNITS) & {m["name"] for m in SPEC["end_to_end"]}


def test_every_layer_names_what_it_should_move():
    assert list(layers.MOVES) == list(layers.LAYERS)
    metrics = {m["name"] for m in SPEC["end_to_end"]} | set(run.DETAIL_UNITS)
    for layer, moves in layers.MOVES.items():
        for metric, workload in moves:
            assert metric in metrics and workload in run.WORKLOADS, (layer, metric)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_a_real_run_prints_exactly_the_declared_metrics(trace, section):
    proc = _bench("--workload", "large-d-cold", "--seed", "2", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 21
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC[section]]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_package_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "measure-scan", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
