"""The package's public surface: names resolve on first use, and the value
records keep the equality, hashing, repr and immutability they had as
dataclasses."""

import importlib
import os
import subprocess
import sys

import pytest

import bvcalc
from bvcalc import EVEN, FIELD, ODD, PLAIN, Generator, LieModel

from conftest import MODELS


PUBLIC = """
    ANTIFIELD AntifieldReport BVSpace Context Derivation EVEN ExpElement FIELD GaugeFermion
    Generator LieModel Model ModelError NonGaussianIntegrand NonNormalizedDamping
    NotACochainComplex NotDeltaClosed ODD OddPowerWarning PLAIN ParseError Poly Scalar
    brst_lie brst_rep ce_cohomology_dims ce_matrices
    exact_boundary_integrals exp_delta gauge_independence_experiment gaussian_expectation
    ghost_context jacobi_check lagrangian_integral load_model parse_expression parse_model
    rep_check rep_context restrict_to_lagrangian standard_damping trace_condition
""".split()


def test_public_names_are_pinned():
    # a name dropped from the home table would pass every per-name test
    assert len(PUBLIC) == 42
    assert set(bvcalc.__all__) == set(PUBLIC) and len(bvcalc.__all__) == 42


@pytest.mark.parametrize("name", bvcalc.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(bvcalc, name)
    # the constants, which carry no __module__, are superalgebra's
    home = importlib.import_module(getattr(obj, "__module__", "bvcalc.superalgebra"))
    assert home.__name__.startswith("bvcalc.") and getattr(home, name) is obj


def test_star_import_and_dir():
    namespace = {}
    exec("from bvcalc import *", namespace)
    assert set(bvcalc.__all__) <= namespace.keys()
    assert set(bvcalc.__all__) <= set(dir(bvcalc))


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        bvcalc.no_such_name
    assert not hasattr(bvcalc, "dataclass")


def test_submodule_attribute_in_a_fresh_interpreter():
    # `import bvcalc` alone loads no submodule; bvcalc.lie loads lie on access
    script = ("import sys, bvcalc\n"
              "assert not [m for m in sys.modules if m.startswith('bvcalc.')]\n"
              "assert bvcalc.lie.jacobi_check(bvcalc.LieModel.build(1)) == []\n"
              "assert 'bvcalc.lie' in sys.modules and 'bvcalc.gauge' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(MODELS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


class TestGenerator:
    def test_defaults_and_repr(self):
        g = Generator("x", EVEN)
        assert (g.name, g.parity, g.role, g.partner) == ("x", EVEN, PLAIN, None)
        assert repr(g) == "Generator(name='x', parity=0, role='plain', partner=None)"
        assert repr(Generator("xp", ODD, "antifield", partner="x")) == \
            "Generator(name='xp', parity=1, role='antifield', partner='x')"

    def test_equality_and_hash(self):
        g = Generator("x", EVEN, FIELD)
        assert g == Generator(name="x", parity=EVEN, role=FIELD, partner=None)
        assert hash(g) == hash(("x", EVEN, FIELD, None))
        assert g != Generator("x", EVEN) and g != Generator("x", ODD, FIELD)
        assert g != ("x", EVEN, FIELD, None)
        assert len({g, Generator("x", EVEN, FIELD), Generator("y", EVEN, FIELD)}) == 2

    @pytest.mark.parametrize("field", ["name", "parity", "role", "partner", "other"])
    def test_immutable(self, field):
        g = Generator("x", EVEN)
        with pytest.raises(AttributeError):
            setattr(g, field, "y")
        with pytest.raises(AttributeError):
            delattr(g, field)
        assert g == Generator("x", EVEN)


class TestLieModel:
    def test_equality_and_repr(self):
        a = LieModel.build(2, {(1, 0, 1): 1})
        assert a == LieModel(2, 0, {(1, 0, 1): 1, (1, 1, 0): -1}, {})
        assert a != LieModel.build(2) and a != LieModel.build(2, {(1, 0, 1): 2})
        assert repr(LieModel.build(1)) == "LieModel(dim=1, module_dim=0, f={}, rho={})"

    def test_immutable_and_unhashable(self):
        model = LieModel.build(2)
        with pytest.raises(AttributeError):
            model.dim = 3
        with pytest.raises(TypeError):
            hash(model)
        assert model.dim == 2
