"""Command-line verifier: loads a model file, runs a check, prints a report.

Exit codes: 0 when the requested check passes, 1 when it ran and failed,
2 on refusals (bad model, parse error, unmet precondition), 3 on an internal
error (an exception no handler expects; one line on stderr, no traceback).
A warning, such as an odd generator squared, is one "warning:" line on stderr.
Preconditions on the input are checked before the computation they guard,
so a ValueError raised inside a computation is an internal error, not a
refusal.  Every library ValueError on the input becomes a refusal through
one helper, ``_checked``, whose optional prefix names the input at fault
(``gauge 'F1': ...``); a precondition the library checks itself, such as
d^2 = 0 for ce-cohomology, is raised as its own exception type and refused.
A ``--point`` value is a constant expression of the parser's grammar
(``-1/2``, ``(1/2)^2``), bounded as a model's expressions are; one that does
not read as a plain rational, or passes those bounds, is refused as a bad
rational.
Reports are deterministic for a fixed (model, flags, seed) triple.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from fractions import Fraction

from .modelfile import Model, ModelError, load_model
from .parser import parse_expression
from .scalars import Scalar
from .superalgebra import Context, Poly

PASS, FAIL, REFUSED = "pass", "fail", "refused"
_EXIT = {PASS: 0, FAIL: 1, REFUSED: 2}
INTERNAL_ERROR = 3
# Every linf row past degree 3 is zero, since the square of a Lie BRST
# differential has degree at most 3; the bound caps the report at that many
# rows.
MAX_NMAX = 1000
# bv-identities and omega-square draw --count random triples or samples; the
# bound keeps a run on a fixture under a second (the defaults are 60 and 40).
MAX_COUNT = 1000


def _render(args, status: str, details) -> str:
    """The report: 'key: value' lines, or one JSON object under --json."""
    head = {"command": args.command, "model": args.model, "status": status}
    if args.json:
        import json
        rows = [[key, str(value)] for key, value in details]
        return json.dumps(head | {"details": rows}, sort_keys=True) + "\n"
    return "".join(f"{key}: {value}\n" for key, value in [*head.items(), *details])


class Refusal(Exception):
    def __init__(self, message: str, details=()):
        super().__init__(message)
        self.details = list(details)


def _checked(check, *args, prefix: str = ""):
    """Run a library check of the input; its ValueError is a refusal, its
    message led by ``prefix``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise Refusal(prefix + str(exc)) from None


def _require_count(name: str, value: int, most: int) -> None:
    if value < 1:
        raise Refusal(f"{name} must be at least 1")
    if value > most:
        raise Refusal(f"{name} must be at most {most}")


def _label(kind: str, indices) -> str:
    """'triple (1,2,3)': 1-based indices, as check-lie and check-rep number them."""
    return f"{kind} (" + ",".join(str(i + 1) for i in indices) + ")"


def _bracketed(residual) -> str:
    """'[a, b]' for a residual vector, '[[a, b]; [c, d]]' for one of rows."""
    if isinstance(residual[0], tuple):
        return "[" + "; ".join(map(_bracketed, residual)) + "]"
    return "[" + ", ".join(map(str, residual)) + "]"


def _violation_report(kind: str, violations):
    """check-lie's and check-rep's report: the count, then each violation."""
    details = [("violations", len(violations))]
    details += [(_label(kind, indices), _bracketed(residual)) for indices, residual in violations]
    return PASS if not violations else FAIL, details


def _require_lie(model: Model):
    if model.lie is None:
        raise Refusal("this command needs a [lie] model")
    return model.lie


def _brst_derivation(model: Model):
    from .lie import brst_rep
    return brst_rep(_require_lie(model), model.module_names)


def _action(model: Model, name: str | None) -> Poly:
    """Named expression, or for Lie models the assembled S0 + hbar*S1;
    refused unless it is even."""
    if name:
        s = model.expr(name)
    elif model.lie is not None:
        s0 = model.exprs.get("S0", model.ctx.zero())
        s1 = model.bvs.s1_of(_brst_derivation(model))
        s = s0 + Scalar.hbar() * s1
    elif "S" in model.exprs:
        s = model.exprs["S"]
    else:
        raise Refusal("no action: give --action or name an expression 'S'")
    return _checked(model.bvs.check_action, s)


def _parse_point(text: str) -> dict:
    """Coordinate values, each a constant expression of the parser's grammar
    (so its rationals, literal bound and work budget apply)."""
    point = {}
    for piece in text.split(","):
        name, _, value = piece.partition("=")
        name, value = name.strip(), value.strip()
        if not name or not value:
            raise Refusal(f"bad point syntax {text!r}; use 'x=0,y=1/2'")
        if name in point:
            raise Refusal(f"coordinate {name} is given twice in the point")
        try:
            constant = parse_expression(value, Context(())).terms.values()
            point[name] = sum(constant, Scalar.zero()).as_fraction()
        except ValueError:     # a ParseError, or a constant with i or hbar
            raise Refusal(f"bad rational {value!r} in point") from None
    return point


# -- command handlers ------------------------------------------------------

def _cmd_check_lie(model: Model, args):
    from . import lie
    return _violation_report("triple", lie.jacobi_check(_require_lie(model)))


def _cmd_check_rep(model: Model, args):
    from . import lie
    lm = _require_lie(model)
    if not lm.module_dim:
        raise Refusal("model has no module, nothing to check")
    return _violation_report("pair", lie.rep_check(lm))


def _cmd_brst(model: Model, args):
    D = _brst_derivation(model)
    details = [(f"delta({g.name})", D.image(g.name)) for g in D.ctx.generators]
    return PASS, details


def _cmd_linf(model: Model, args):
    from .derivations import linf_rows
    _require_lie(model)
    _require_count("n_max", args.nmax, MAX_NMAX)
    square = _brst_derivation(model).square_residual()
    square_zero = all(p.is_zero for p in square.values())
    rows = linf_rows(square, args.nmax)
    details = []
    for n, row in rows:
        nonzero = {v: p for v, p in row.items() if not p.is_zero}
        if not nonzero:
            details.append((f"row {n}", "0"))
        else:
            for v in sorted(nonzero):
                details.append((f"row {n} ({v})", nonzero[v]))
    details.append(("square_zero", str(square_zero).lower()))
    return (PASS if square_zero else FAIL), details


def _cmd_ce_cohomology(model: Model, args):
    from . import lie
    lm = _require_lie(model)
    if args.p == 1 and not lm.module_dim:
        raise Refusal("p = 1 needs a module")
    try:
        dims = lie.ce_cohomology_dims(lm, args.p)
    except lie.NotACochainComplex as exc:
        kind, command = {"jacobi": ("triple", "check-lie"),
                         "rep": ("pair", "check-rep")}[exc.check]
        raise Refusal(f"{exc.what} at {_label(kind, exc.violation[0])}, so d^2 != 0 "
                      f"(see {command})") from None
    details = [("dims", "(" + ", ".join(str(d) for d in dims) + ")")]
    details += [(f"H^{q}", d) for q, d in enumerate(dims)]
    return PASS, details


def _cmd_bv_identities(model: Model, args):
    from . import identities
    _require_count("count", args.count, MAX_COUNT)
    fails = identities.bv_identity_suite(model.bvs, args.seed, args.count)
    details = [("seed", args.seed), ("triples", args.count)]
    ok = True
    for name in identities.IDENTITY_NAMES:
        n = fails[name]
        ok = ok and n == 0
        details.append((name, "ok" if n == 0 else f"{n} failures"))
    return (PASS if ok else FAIL), details


def _cmd_master(model: Model, args):
    residual = model.bvs.classical_master_residual(_action(model, args.action))
    return (PASS if residual.is_zero else FAIL), [("residual", residual)]


def _cmd_qme(model: Model, args):
    residual = model.bvs.quantum_master_residual(_action(model, args.action))
    return (PASS if residual.is_zero else FAIL), [("residual", residual)]


def _cmd_hbar_seq(model: Model, args):
    rows = model.bvs.hbar_equations(_action(model, args.action))
    details = [(f"R_{k}", r) for k, r in rows] or [("residuals", "all zero")]
    return (PASS if not rows else FAIL), details


def _cmd_onshell(model: Model, args):
    points = [_parse_point(text) for text in args.point or []]
    for point in points:
        # evaluating 0 at the point checks its coordinate names
        _checked(model.bvs.evaluate_even_fields, model.ctx.zero(), point)
    report = model.bvs.antifield_report(_action(model, args.action), points)
    details = [("bracket(S0,S1)", report.bracket_s0_s1),
               ("offshell {S1,S1}+2{S0,S2}", report.offshell_residual)]
    if not points:
        ok = report.first_order_consistent
    else:
        ok = True
        for pr in report.points:
            label = ",".join(f"{k}={v}" for k, v in sorted(pr.point.items()))
            if not pr.is_critical:
                ok = False
                bad = "; ".join(f"d/d{f} = {v}" for f, v in sorted(pr.gradient_failures.items()))
                details.append((f"point {label}", f"not critical: {bad}"))
            else:
                zero = pr.onshell_residual.is_zero
                ok = ok and zero
                details.append((f"point {label}",
                                "onshell residual 0" if zero
                                else f"onshell residual {pr.onshell_residual}"))
    return (PASS if ok else FAIL), details


def _cmd_omega_square(model: Model, args):
    import random
    from .randgen import random_poly
    _require_count("count", args.count, MAX_COUNT)
    s = _action(model, args.action)
    bvs = model.bvs
    residual = bvs.quantum_master_residual(s)
    rng = random.Random(args.seed)
    half = Fraction(1, 2)
    bad = 0
    for _ in range(args.count):
        psi = random_poly(rng, bvs.ctx, max_degree=3, terms=3)
        lhs = bvs.omega_apply(s, bvs.omega_apply(s, psi))
        if lhs != half * bvs.bracket(residual, psi):
            bad += 1
    details = [("seed", args.seed), ("samples", args.count),
               ("identity", "ok" if bad == 0 else f"{bad} failures"),
               ("qme_residual", residual)]
    return (PASS if bad == 0 else FAIL), details


def _cmd_gauge_exp(model: Model, args):
    from . import gauge
    bvs = model.bvs
    p = model.expr(args.p)
    t = model.expr(args.t) if args.t else gauge.standard_damping(bvs)
    # only a --t exponent can fail the element's checks
    element = _checked(gauge.ExpElement, bvs, [(p, t)], prefix=f"exponent {args.t!r}: ")
    # a missing name is refused under the gauge's name, as the constructor's checks are
    fermions = [_checked(lambda: gauge.GaugeFermion(bvs, model.expr(name)),
                         prefix=f"gauge {name!r}: ") for name in args.gauge]
    if not fermions:
        raise Refusal("give at least one --gauge expression name")
    try:
        if args.boundary:
            report = gauge.exact_boundary_integrals(element, fermions)
        else:
            report = gauge.gauge_independence_experiment(element, fermions)
    except gauge.NotDeltaClosed as exc:
        raise Refusal("integrand is not delta-closed",
                      [("residual", exc.residual)]) from None
    except (gauge.NonNormalizedDamping, gauge.NonGaussianIntegrand) as exc:
        raise Refusal(str(exc)) from None
    label, verdict = (("integral of delta", "all_zero") if args.boundary
                      else ("integral", "all_equal"))
    details = [(f"{label} [{name}]", value)
               for name, (_, value) in zip(args.gauge, report.values)]
    details.append((verdict, str(report.all_equal).lower()))
    return (PASS if report.all_equal else FAIL), details


def _cmd_trace_cond(model: Model, args):
    from . import lie
    lm = _require_lie(model)
    trace = lie.trace_condition(lm, model.module_names)
    return (PASS if trace.is_zero else FAIL), [("trace", trace)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bvcalc",
                                     description="exact checks on model files")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler):
        p = sub.add_parser(name)
        p.add_argument("model", help="path to the model file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(handler=handler)
        return p

    add("check-lie", _cmd_check_lie)
    add("check-rep", _cmd_check_rep)
    add("brst", _cmd_brst)
    p = add("linf", _cmd_linf)
    # D raises every degree by one, so each D^2(g) is cubic and the rows past
    # 3 are zero
    p.add_argument("--nmax", type=int, default=3)
    p = add("ce-cohomology", _cmd_ce_cohomology)
    p.add_argument("--p", type=int, choices=(0, 1), default=0)
    p = add("bv-identities", _cmd_bv_identities)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=60)
    for name, handler in (("master", _cmd_master), ("qme", _cmd_qme),
                          ("hbar-seq", _cmd_hbar_seq)):
        p = add(name, handler)
        p.add_argument("--action", default=None)
    p = add("onshell", _cmd_onshell)
    p.add_argument("--action", default=None)
    p.add_argument("--point", action="append", default=[])
    p = add("omega-square", _cmd_omega_square)
    p.add_argument("--action", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=40)
    p = add("gauge-exp", _cmd_gauge_exp)
    p.add_argument("--p", required=True, help="expression name for the prefactor")
    p.add_argument("--t", default=None, help="expression name for the exponent")
    p.add_argument("--gauge", action="append", default=[],
                   help="gauge fermion expression name (repeatable)")
    p.add_argument("--boundary", action="store_true",
                   help="integrate delta of the element and expect zeros")
    add("trace-cond", _cmd_trace_cond)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # exact answers may have coefficients past the interpreter's str(int)
    # digit limit; parser.MAX_LITERAL_DIGITS bounds the input numbers instead
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return _run(args)
        except Exception as exc:  # a crash must never read as "check ran and failed"
            message = " ".join(f"{type(exc).__name__}: {exc}".split())
            sys.stderr.write(f"internal error: {message}\n")
            return INTERNAL_ERROR
        finally:
            if lift:
                sys.set_int_max_str_digits(saved)
            sys.stderr.writelines(f"warning: {' '.join(str(w.message).split())}\n" for w in caught)


def _run(args) -> int:
    try:
        model = load_model(args.model)
    except (ModelError, OSError) as exc:
        status, details = REFUSED, [("error", exc)]
    else:
        try:
            status, details = args.handler(model, args)
        except Refusal as exc:
            status, details = REFUSED, [("error", exc)] + exc.details
        except ModelError as exc:
            status, details = REFUSED, [("error", exc)]
    sys.stdout.write(_render(args, status, details))
    return _EXIT[status]


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
