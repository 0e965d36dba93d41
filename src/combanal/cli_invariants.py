"""The handlers of the `invariant` commands (see combanal.cli)."""

from __future__ import annotations

from fractions import Fraction

from . import invariants as iv
from .cli_common import CommandResult, UsageError, exclusive, rationals, scalar
from .exactcore import MAX_EXPONENT, MultiPoly, format_rows


def parse_coeff_poly(expr: str, p: int) -> MultiPoly:
    """Parse sums of integer-coefficient monomials in a0..ap, x, y.

    Grammar per term: [+-][int*]factor(*factor)* with factor = name[^k].
    Example: "a0*a2 - a1^2" or "-3*a0*a1*a2 + 2*a1^3".
    """
    names = iv.avar_names(p, with_xy="x" in expr or "y" in expr)
    cleaned = expr.replace(" ", "").replace("-", "+-")
    terms = {}
    for term in cleaned.split("+"):
        if not term:
            continue
        coeff = Fraction(1)
        if term.startswith("-"):
            coeff = Fraction(-1)
            term = term[1:]
        exp = [0] * len(names)
        for factor in term.split("*"):
            if not factor:
                raise UsageError(f"empty factor in {expr!r}")
            if factor.lstrip("-").replace("/", "").isdigit():
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError):
                    raise UsageError(f"bad coefficient {factor!r} in {expr!r}") from None
                continue
            name, caret, power_text = factor.partition("^")
            if caret and not power_text.isdecimal():
                raise UsageError(f"power must be a non-negative integer in {expr!r}")
            try:
                power = int(power_text) if caret else 1
            except ValueError:  # more digits than int() converts
                raise UsageError(f"term of degree above {MAX_EXPONENT} in {expr!r}") from None
            if name not in names:
                raise UsageError(f"unknown symbol {name!r} for order {p}")
            exp[names.index(name)] += power
        # Omega and O keep a term's degree, so every exponent they form
        # stays within MultiPoly's range when the degree does.
        if sum(exp) > MAX_EXPONENT:
            raise UsageError(f"term of degree above {MAX_EXPONENT} in {expr!r}")
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + coeff
    return MultiPoly(names, terms)


def cmd_invariant_omega(args) -> CommandResult:
    return scalar(str(iv.omega(parse_coeff_poly(args.poly, args.p), args.p)))


def cmd_invariant_oop(args) -> CommandResult:
    return scalar(str(iv.oop(parse_coeff_poly(args.poly, args.p), args.p)))


def cmd_invariant_check(args) -> CommandResult:
    poly = parse_coeff_poly(args.poly, args.p)
    transform = rationals(args.transform, "--transform")
    if len(transform) != 4:
        raise UsageError(f"--transform takes four values l,m,lp,mp, not {args.transform!r}")
    l, m, lp, mp = transform
    ok, s = iv.invariance_check(poly, args.p, iv.LinearTransform2(l, m, lp, mp))
    text = f"{'invariant' if ok else 'not invariant'}" + (f" s={s}" if ok else "")
    return CommandResult(text, {"invariant": ok, "exponent": s})


def cmd_invariant_covariant(args) -> CommandResult:
    return scalar(str(iv.covariant_from_seed(parse_coeff_poly(args.seed, args.p), args.p)))


def cmd_invariant_basis(args) -> CommandResult:
    if exclusive(("j", args.j), ("--protomorphs", args.protomorphs)) == "--protomorphs":
        texts = [str(s) for s in iv.protomorphs(args.p, args.protomorphs)]
        return CommandResult("\n".join(texts), texts)
    if args.j is None or args.w is None:
        raise UsageError("invariant basis needs j and w (or --protomorphs)")
    texts = format_rows(*iv.seminvariant_kernel(args.p, args.j, args.w))
    return CommandResult("\n".join(texts) or "(empty)", texts)


def cmd_invariant_weight(args) -> CommandResult:
    w = iv.invariant_weight(args.i, args.p)
    return CommandResult("infeasible" if w is None else str(w), w)


def cmd_invariant_syzygant(args) -> CommandResult:
    if args.sources:
        sources = [parse_coeff_poly(e, args.p) for e in args.sources.split("|")]
    else:
        u = MultiPoly.variable(iv.avar_names(args.p), "a0")
        h = iv.quadrinvariant(args.p, 2)
        c3 = iv.odd_source(args.p, 3)
        q4 = iv.quadrinvariant(args.p, 4)
        sources = [h**3, c3**2, u**2 * h * q4]
    solutions = [
        {"alphas": [str(a) for a in sol.alphas], "quotient": str(sol.quotient)}
        for sol in iv.syzygant_search(sources, args.k)
    ]
    lines = [f"alphas ({','.join(sol['alphas'])}); quotient {sol['quotient']}" for sol in solutions]
    return CommandResult("\n".join(lines) or "(no nonzero solution)", solutions)


def cmd_invariant_roots(args) -> CommandResult:
    report = iv.roots_correspondence_check(args.p, args.trials, seed=args.seed)
    obj = {
        "trials": report.trials,
        "q2_identity_ok": report.q2_identity_ok,
        "prior_product_ok": report.prior_product_ok,
    }
    text = (
        f"trials {report.trials}: q2 {'ok' if report.q2_identity_ok else 'FAIL'}, "
        f"product {'ok' if report.prior_product_ok else 'FAIL'}"
    )
    return CommandResult(text, obj)
