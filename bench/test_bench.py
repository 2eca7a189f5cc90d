"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import inspect
import json
import random

import pytest

import run
import tracer
import workloads
from bvcalc import gauge, lie, modelfile

CHEAP = {"sl2", "solvable2", "gl2", "sl2-adjoint", "gl2-adjoint"}


def cheap_ops(wl, ops):
    """A few ops of each workload that run in well under a second."""
    if wl.name == "ce-cohomology":
        return [op for op in ops if op.label in CHEAP]
    if wl.name == "cli-models":
        return [op for op in ops if op.argv[0] in ("check-lie", "brst")][:3]
    return ops[:3]


def outcomes(wl, ops):
    return [wl.execute(op) for op in ops]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_outcomes(name):
    wl = workloads.WORKLOADS[name]
    first = wl.generate(7, wl.pass_len)
    second = wl.generate(7, wl.pass_len)
    assert [op.describe() for op in first] == [op.describe() for op in second]
    assert outcomes(wl, cheap_ops(wl, first)) == outcomes(wl, cheap_ops(wl, second))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_other_seed_other_inputs_all_oracles_pass(name):
    wl = workloads.WORKLOADS[name]
    ops_a = wl.generate(7, wl.pass_len)
    ops_b = wl.generate(8, wl.pass_len)
    assert [op.describe() for op in ops_a] != [op.describe() for op in ops_b]
    for op in cheap_ops(wl, ops_b):
        assert wl.verify(op, wl.execute(op)), op.describe()


def test_gauge_integrands_are_closed():
    wl = workloads.WORKLOADS["gauge-lagrangian"]
    for op in wl.generate(3, 8):
        assert gauge.exp_delta(wl.integrand(op)).is_zero
        assert not gauge.exp_delta(wl.seed_element(op)).is_zero or op.psi.is_zero


def test_sheared_algebras_satisfy_jacobi():
    wl = workloads.WORKLOADS["ce-cohomology"]
    sheared = [op for op in wl.generate(5, 2 * wl.pass_len) if op.sheared]
    assert len(sheared) == wl.pass_len
    for op in sheared:
        assert lie.jacobi_check(op.model) == [], op.label
    for path, text, _ in workloads.generated_runs(random.Random(5), "t"):
        model = modelfile.parse_model(text, path)
        if model.lie is not None:
            assert lie.jacobi_check(model.lie) == []


def test_golden_covers_every_fixture_run():
    assert set(workloads.load_golden()) == {tuple(a) for a in workloads.fixture_runs()}


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(x) for x in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def _namespaces():
    """(owner, attribute dict) for every bvcalc module and class defined there."""
    out = []
    for module in tracer.bvcalc_modules():
        out.append((module, dict(vars(module))))
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__.startswith("bvcalc"):
                out.append((obj, dict(vars(obj))))
    return out


def _wrapped_count():
    n = 0
    for _, attrs in _namespaces():
        for val in attrs.values():
            val = getattr(val, "__func__", val)
            n += hasattr(val, tracer.MARK)
    return n


def _run(capsys, monkeypatch, trace):
    wl = workloads.WORKLOADS["bv-identities"]
    seen = []
    execute = wl.execute

    def probe(op):
        seen.append(_wrapped_count())
        return execute(op)

    monkeypatch.setattr(wl, "execute", probe)
    monkeypatch.chdir(run.ROOT)
    before = _namespaces()
    code = run.main(["--workload", wl.name, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)])
    after = _namespaces()
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    for (owner, attrs), (owner2, attrs2) in zip(before, after):
        assert owner is owner2 and attrs.keys() == attrs2.keys()
        assert all(attrs[k] is attrs2[k] for k in attrs), owner
    return seen, result


def _declared(kind):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_untraced_run_installs_no_wrappers(capsys, monkeypatch):
    seen, result = _run(capsys, monkeypatch, 0)
    assert seen and not any(seen)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_wraps_then_restores_everything(capsys, monkeypatch):
    seen, result = _run(capsys, monkeypatch, 1)
    assert not seen[0] and seen[-1] > 100     # untraced phase, then traced
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    assert _wrapped_count() == 0
