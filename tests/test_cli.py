import io
import contextlib
import importlib
import importlib.util
import json
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combanal
from combanal import cli
from combanal import partitions as pt
from enumeration_support import (
    contact_systems_oracle,
    enumerate_compositions_oracle,
    enumerate_partitions_oracle,
    plane_partitions_oracle,
)

# Golden corpus: argv -> exact expected stdout.  Values anchored in the
# module test suites; byte stability across runs is asserted below.
GOLDEN = [
    ("partition count 30", "5604\n"),
    ("partition count 27", "3010\n"),
    ("partition count 38", "26015\n"),
    ("partition count 31 --parts 5 --min-part 3", "101\n"),
    ("partition count 5 --elements 1,2", "3\n"),
    ("partition count 9 --euler-primes 3", "3 3\n"),
    ("partition count 10 --pattern >,>", "4\n"),
    ("partition enum 4", "4\n3 1\n2 2\n2 1 1\n1 1 1 1\n"),
    ("partition table --demorgan 10", "1 5 8 9 7 5 3 2 1 1\n"),
    ("partition table --u3 60", "300\n"),
    ("partition conj 4,2,1", "3 2 1 1\n"),
    ("partition modular 8,5,2,1 --mod 4", "44\n41\n2\n1\n"),
    ("partition modular 8,5,2,1 --mod 3", "332\n32\n2\n1\n"),
    ("partition parity 1000", "odd\n"),
    ("partition parity --digits 20", "10111110000111011101\n"),
    ("partition perfect 7", "4 2 1\n4 1 1 1\n2 2 2 1\n1 1 1 1 1 1 1\n"),
    ("partition plane 4", "13\n"),
    ("partition scale 1,1,1", "places 1 2 4; limit 7; partition 4 2 1\n"),
    ("compose enum 3", "1 1 1\n1 2\n2 1\n3\n"),
    ("compose conj 2,1,4", "1 3 1 1 1\n"),
    ("compose conj 3,1;0,1;1,1", "(1,0) (1,0) (1,0) (0,2) (1,0) (0,1)\n"),
    ("compose zigzag 3,3,2,1", "1 1 2 1 2 2\n"),
    ("compose count 2 2", "26\n"),
    ("compose count 4 --order-k 2", "8\n"),
    ("master derange 4", "9\n"),
    ("master derange 6", "265\n"),
    ("master rencontres 0 1,1,1,1", "9\n"),
    ("master coeff --matrix 0,1;1,0 --degree 2,2", "1\n"),
    ("invariant weight 3 4", "6\n"),
    ("invariant oop a0*a2-a1^2 --p 4", "-2*a1*a2 + 2*a0*a3\n"),
    ("ballot ahead 2 1", "1/3\n"),
    ("ballot neverbehind 3 2", "1/2\n"),
    ("ballot order 2,1,1", "1/4\n"),
    ("election cubelaw 53 47 100", "59 41\n"),
    ("puzzle latin --reduced 5", "56\n"),
    ("puzzle latin --reduced 4", "4\n"),
    ("puzzle stamps 9", "4536\n"),
    ("puzzle contacts 4", "10\n"),
    ("puzzle rod 8", "0 1 3 7 12 20 30 44\n"),
    ("puzzle rod 8 --format json", "[0,1,3,7,12,20,30,44]\n"),
    ("puzzle weights 7", "4 2 1\n"),
    ("puzzle rooks 8 2", "56\n"),
    ("puzzle triangles 4", "24\n"),
    ("puzzle triangles 5", "45\n"),
    ("puzzle triangles 3 --squares", "24\n"),
    ("puzzle cubes", "30\n"),
    ("divisor potency 33", "14 2\n"),
    ("divisor factorize 12", "4\n"),
    ("divisor factorize 8 --ordered", "4\n"),
    ("divisor totient 12", "4\n"),
    ("divisor sigma2 4", "1 5 10 21\n"),
    ("pattern classify 0,0;1/2,1/3;1,0", "S\n"),
    ("pattern angles 3/5,3/5,3/5,3/5,3/5", "not-a-repeat\n"),
    ("pattern tetra", "vertices 0,0,0; 2,0,0; 1,1,1; 1,-1,1; ratio^2 4/3; volume 2/3\n"),
]


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv.split() if isinstance(argv, str) else argv)
    return code, out.getvalue(), err.getvalue()


class TestGoldenCorpus:
    @pytest.mark.parametrize("argv,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_golden(self, argv, expected):
        code, out, err = run(argv)
        assert code == 0, err
        assert out == expected

    def test_corpus_is_big_enough(self):
        assert len(GOLDEN) >= 30

    def test_byte_stability(self):
        for argv, _ in GOLDEN[:12]:
            first = run(argv)
            second = run(argv)
            assert first == second


@pytest.mark.parametrize("flags", ["", " --ordered"])
def test_factorize_large_prime(flags):
    # Divisors are listed in sqrt(m) steps, so 10^9 + 7 answers at once.
    assert run("divisor factorize 1000000007" + flags) == (0, "1\n", "")


class TestExitCodes:
    def test_usage_error_is_2(self):
        code, out, err = run("partition count not-a-number")
        assert code == 2

    def test_unknown_flag_rejected(self):
        code, out, err = run("partition count 5 --bogus")
        assert code == 2

    def test_domain_error_is_1(self):
        code, out, err = run("puzzle latin --reduced 7")
        assert code == 1
        assert err != ""
        assert out == ""

    def test_cap_refusal_is_1(self):
        code, out, err = run("puzzle stamps 13")
        assert code == 1

    def test_exhausted_hexagon_search_says_none_exists(self):
        # no tile carries colour 4; spent restarts would say "none found within ..."
        assert run("puzzle hexagon --border 4") == (1, "", "error: no hexagon arrangement exists\n")

    def test_max_work_flag_is_gone(self):
        code, out, err = run("puzzle stamps 6 --max-work 5")
        assert code == 2 and out == ""

    def test_max_work_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("COMBANAL_MAX_WORK", "99")
        code, out, err = run("puzzle stamps 13")
        assert code == 1 and out == ""

    def test_unsupported_format_is_2(self):
        code, out, err = run("puzzle cubes --format svg")
        assert code == 2

    def test_svg_is_refused_before_the_handler_runs(self, monkeypatch):
        calls = []
        monkeypatch.setitem(cli.RUN, ("master", "derange"), lambda args: calls.append(args))
        # derangements(-1) is a domain error (exit 1) if the handler runs
        assert run("master derange -1 --format svg") == (
            2, "", "usage error: this subcommand has no svg output\n"
        )
        assert calls == []

    @pytest.mark.parametrize("argv", [
        "partition plane 5 --boxed 0,0",
        "invariant oop a0^-1 --p 2",
        "invariant oop 1/0 --p 2",
        "divisor series A --max-n -1",
        "divisor series A --n 5 --k 0",
        "divisor series A --max-n 5 --max-k 0",
        "puzzle cubes --associated 99",
        "puzzle mayblox --target 40",
        "puzzle mayblox --target -1",
        "pattern tile --contact 0-9",
        "pattern tile --contact 0-1-2",
        "pattern tile --contact a-b",
        "partition enum 10 --allowed x,y",
        "master rencontres 0 a,b",
        "master coeff --matrix 1",
        "ballot order 2,x",
        "compose conj 1,2;x",
        "pattern classify 0,0;1",
        "pattern angles 1/0",
        "partition count 10 --min-part 3",
        "partition count 5 --pattern=",
        "partition count 5 --elements=",
        "partition count 5 --pattern=> --parts 3",
        "partition count 5 --pattern >,> --elements 1,2",
        "partition count 5 --elements 1,2 --euler-primes 3",
        "partition count 5 --euler-primes 3 --parts 2",
        "invariant check a0*a2-a1^2 --p 2 --transform 1,2",
        "invariant check a0*a2-a1^2 --p 2 --transform 1,0,0,x",
        "invariant omega a0^3000000000 --p 2",
        "invariant omega a0^2000000000*a0^2000000000 --p 2",
        "invariant omega a0^2147483648*a1 --p 2",
        pytest.param("invariant omega a0^" + "9" * 5000 + " --p 2", id="invariant omega a0^(5000 digits) --p 2"),
    ])
    def test_malformed_argument_is_usage_error(self, argv):
        code, out, err = run(argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        ("partition count 10 --min-part 3", "--min-part needs --parts"),
        ("partition count 5 --pattern=", "--pattern needs a value"),
        ("partition count 5 --elements=", "--elements needs a value"),
        ("partition count 5 --pattern=> --parts 3", "--pattern and --parts cannot be combined"),
    ])
    def test_partition_count_options_that_were_dropped_are_one_usage_line(self, argv, message):
        assert run(argv) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv", ["divisor series A --n 0", "divisor series A --n 5 --k 0"])
    def test_divisor_series_index_is_one_usage_line(self, argv):
        assert run(argv) == (2, "", "usage error: --n and --k must be at least 1\n")

    @pytest.mark.parametrize("argv", [
        "invariant syzygant --k 0 --sources a1",
        "invariant syzygant --k 1 --sources a0*a2-a1^2|a1^2|a0*a2",
    ])
    def test_source_not_killed_by_omega_is_one_line_refusal(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_syzygant_k_past_the_exponent_range_answers(self):
        assert run("invariant syzygant --k 3000000000") == (0, "(no nonzero solution)\n", "")

    @pytest.mark.parametrize("argv", [
        "invariant omega 3 --p -5",
        "invariant omega a0 --p 0",
        "invariant oop a0 --p 0",
        "invariant syzygant --p -1 --k 1 --sources 3",
        "invariant syzygant --p 0 --k 1",
        "invariant covariant a0 --p 0",
        "invariant check a0 --p -2 --transform 1,0,0,1",
    ])
    def test_order_below_one_is_usage_error(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.rstrip("\n").endswith("error: argument --p: the order must be at least 1, not "
                                          + argv.split("--p ")[1].split()[0])

    def test_answer_past_the_int_string_limit_prints_in_full(self):
        # the bipartite compositions of (49999, 1) number 15056 digits,
        # past Python's default limit of 4300 on int -> str
        code, out, err = run("compose count 49999 1")
        assert (code, err) == (0, "")
        assert len(out) - 1 > sys.int_info.default_max_str_digits
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits

    @pytest.mark.parametrize("argv", [
        "partition count " + "9" * 5000,
        "partition conj 1," + "9" * 5000,
        "invariant oop " + "7" * 5000 + "*a0 --p 2",
        # an exponent past the limit: Fraction would build 10^K
        "invariant check a0 --p 2 --transform 1e999999999,2,3,5",
        "pattern classify 0,0;1e3000000,1;1,0",
    ])
    def test_argv_number_past_the_int_string_limit_is_usage_error(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert "Traceback" not in err


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout("no answer within the time bound")


def run_within(argv, seconds=10):
    """run(argv), raising Timeout if it has not answered within `seconds`."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Polynomial arguments from the parser's alphabet and just past it: names
# a0..a5, x, y and junk; powers small, negative, empty and above 2^31;
# coefficients including 1/0.  Valid tokens are listed several times, so
# that junk is drawn about one time in eight and many strings parse;
# isobaric polynomials, Omega-killed and not, are mixed in so that
# syzygant and covariant reach their source checks and their kernels.
# Long polynomials of hundreds to thousands of random terms over a0..a2,
# x and y parse at every order drawn but 0.
POLY_NAMES = ("a0", "a1", "a2", "a3", "a4", "a5", "x", "y") * 5 + ("a", "a9", "b", "-", "/", "")
POLY_POWERS = ("", "^0", "^1", "^2", "^3", "^2147483647", "^2147483648") * 3 + ("^", "^-1", "^3000000000")
POLY_COEFFS = ("", "0*", "2*", "1/2*", "-3*", "7") * 2 + ("1/0*", "1/*")
ISOBARIC = ("a0", "a1", "a0^2", "-2*a0^2", "a0*a2-a1^2", "a0*a2+a1^2", "a0^3*a2-a0^2*a1^2", "a0^2147483648")
poly_factor = st.builds(str.__add__, st.sampled_from(POLY_NAMES), st.sampled_from(POLY_POWERS))
poly_term = st.builds(
    lambda coeff, factors: coeff + "*".join(factors),
    st.sampled_from(POLY_COEFFS), st.lists(poly_factor, min_size=1, max_size=3),
)


def long_poly(count, seed):
    """`count` random terms of up to three factors over a0..a2, x and y,
    powers at most 3, coefficients 1..9 of either sign."""
    rng = random.Random(seed)
    return "".join(
        rng.choice("+-") + str(rng.randint(1, 9)) + "".join(
            f"*{rng.choice(('a0', 'a1', 'a2', 'x', 'y'))}^{rng.randint(0, 3)}" for _ in range(rng.randint(1, 3))
        )
        for _ in range(count)
    )


poly_text = st.one_of(
    st.lists(
        st.builds(str.__add__, st.sampled_from(("+", "-", "")), poly_term), min_size=1, max_size=3
    ).map("".join),
    st.sampled_from(ISOBARIC),
    st.builds(long_poly, st.integers(100, 3000), st.integers(0, 2**32)),
)


@settings(max_examples=300, deadline=None)
@given(
    action=st.sampled_from(("omega", "oop", "syzygant", "check", "covariant")),
    polys=st.lists(poly_text, min_size=1, max_size=3),
    p=st.sampled_from((0, 2, 5, 6)),
    k=st.sampled_from((0, 1, 2, 3, 2**31, 3 * 10**9)),
    transform=st.sampled_from(("1,2,3,5", "1/2,2/3,3,5", "2,1,0,3", "1,0,0,1", "0,1,-1,0", "1,2,2,4")),
)
def test_polynomial_arguments_exit_0_1_or_2(action, polys, p, k, transform):
    # the '=' and '--' forms let a polynomial that starts with '-' through argparse
    if action == "syzygant":
        argv = ["invariant", "syzygant", "--p", str(p), "--k", str(k), "--sources=" + "|".join(polys)]
    elif action == "check":
        argv = ["invariant", "check", "--p", str(p), "--transform=" + transform, "--", polys[0]]
    else:
        argv = ["invariant", action, "--p", str(p), "--", polys[0]]
    code, out, err = run_within(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_parse_builds_one_polynomial_whatever_the_term_count(monkeypatch):
    from combanal.exactcore import MultiPoly

    built = []
    init = MultiPoly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultiPoly, "__init__", counting_init)
    counts = []
    for terms in (5, 5000):
        built.clear()
        poly = cli.parse_coeff_poly("+".join(f"{c}*a0^{c}*a1" for c in range(1, terms + 1)), 2)
        assert len(poly.terms) == terms
        counts.append(len(built))
    assert counts == [1, 1]


# Every command, with typed argv drawn from its own entry in cli.COMMANDS:
# ints at the edges, small, at every *_CAP value +- 1 and 10^20; floats
# with the overflow edge and the non-finite values; the choices; flags on
# and off; comma lists of the ints (the empty list too); polynomials as
# above for the polynomial arguments, and a few shaped strings where an
# argument has a syntax of its own.  Any exception other than a refusal
# propagates out of dispatch, so a bug fails the test, and so does an
# argv that has not answered within 10 s, ten times the slowest draw here.
CAP_VALUES = sorted({
    value
    for module in combanal.__all__
    for name, value in vars(importlib.import_module(f"combanal.{module}")).items()
    if name.endswith("_CAP")
})
INTS = tuple(str(v) for v in (-1, 0, 1, 2, 3, 4, 5, 7, 10, 10**20)) + tuple(
    str(v) for cap in CAP_VALUES for v in (cap - 1, cap + 1)
)
FLOATS = ("0.5", "0.53", "1", "0", "-1", "47", "1e-308", "1e308", "nan", "inf", "-inf")
int_list = st.lists(st.sampled_from(INTS), max_size=4).map(",".join)
fraction_list = st.lists(st.sampled_from(("1/3", "3/5", "-1/2", "1/0", "2") + INTS[:5]), max_size=5).map(",".join)
SHAPED = {
    "poly": poly_text,
    "seed": poly_text,
    "--sources": st.lists(poly_text, min_size=1, max_size=3).map("|".join),
    # short patterns, with an unknown relation among them, and long ones of
    # 26 to 31 parts, whose slot table alone passes the cap from n = 340 on
    "--pattern": st.one_of(
        st.lists(st.sampled_from((">", ">=", "=", "<", "<=", "*", "?")), max_size=4),
        st.lists(st.sampled_from((">", ">=", "=", "<", "<=", "*")), min_size=25, max_size=30),
    ).map(",".join),
    "--matrix": st.lists(int_list, min_size=1, max_size=4).map(";".join),
    "--boxed": st.lists(st.sampled_from(INTS + ("inf",)), min_size=2, max_size=4).map(",".join),
    "--transform": fraction_list,
    "angles": fraction_list,
    "parts": st.one_of(int_list, st.lists(int_list, max_size=3).map(";".join)),
    "profile": st.sampled_from(("0,0;1,0", "0,0;1/2,1/3;1,0", "0,0;1/2,-1/3;1,0", "0,0;1", "1,1;0,0", "")),
    "--profiles": st.lists(
        st.sampled_from(("0,0;1,0", "0,0;1/2,1/3;1,0", "0,0;1/4,1/4;3/4,-1/4;1,0", "x")), max_size=6
    ).map("|".join),
    "--contact": st.lists(st.sampled_from(("0-1", "0-2", "1-3", "2-5", "0-9", "a-b", "1")), max_size=3).map(",".join),
}


@pytest.fixture(scope="module")
def sizes_files(tmp_path_factory):
    """--sizes-file values: good, bad and negative contents, an empty file,
    a directory and a missing path."""
    root = tmp_path_factory.mktemp("sizes")
    paths = [str(root), str(root / "missing")]
    for name, text in (("good", "100\n\n200\n"), ("word", "10\nten\n"), ("negative", "-5\n"), ("empty", "")):
        (root / name).write_text(text)
        paths.append(str(root / name))
    return paths


def command_argv(key, sizes_files):
    """Argv for one command: options as --name=value (a value may start
    with '-'), then '--' and the positionals."""
    parts = []
    for names, options in cli.COMMANDS[key].arguments:
        name = names[0]
        if options.get("action") == "store_true":
            value = st.just(None)
        elif "choices" in options:
            value = st.sampled_from(options["choices"])
        elif name == "--sizes-file":
            value = st.sampled_from(sizes_files)
        elif key == ("puzzle", "hexagon"):
            # a border of 0..3 spends the whole restart budget, 5-20 s:
            # only the borders that refuse at once are drawn
            value = st.sampled_from([v for v in INTS if v not in ("0", "1", "2", "3")])
        elif key == ("partition", "enum") and name in ("--min-part", "--parts"):
            # a listing past the cap is counted by walking it, and a least
            # part above 2 or many parts leave dead ends at most steps of
            # the walk: `partition enum 200 --min-part 12` takes 2.6 s to
            # refuse and `partition enum 8388607 --parts 513` more than
            # 300 s (ROADMAP item 7), so these take only the small ints
            value = st.sampled_from(INTS[:4] if name == "--min-part" else INTS[:9])
        elif options.get("type") in (int, cli._order):
            value = st.sampled_from(INTS)
        elif options.get("type") is float:
            value = st.sampled_from(FLOATS)
        else:
            value = SHAPED.get(name, int_list)
        required = (
            options.get("required")
            or (not name.startswith("-") and options.get("nargs") != "?")
            or key == ("puzzle", "hexagon")  # the default border is 0
        )
        present = st.just(True) if required else st.booleans()
        parts.append(st.tuples(st.just(name), value, present))
    parts.append(st.tuples(st.just("--format"), st.sampled_from(cli.FORMATS), st.booleans()))

    def assemble(drawn):
        argv, positionals = list(key), []
        for name, value, present in drawn:
            if not present:
                continue
            if not name.startswith("-"):
                positionals.append(value)
            else:
                argv.append(name if value is None else f"{name}={value}")
        return argv + (["--"] + positionals if positionals else [])

    return st.tuples(*parts).map(assemble)


@pytest.mark.parametrize("key", list(cli.COMMANDS), ids=" ".join)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_command_exits_0_1_or_2(key, sizes_files, data):
    argv = data.draw(command_argv(key, sizes_files), label="argv")
    code, out, err = run_within(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# one counting route of partition count: the draws above seldom give one
# alone, and the routes refuse each other
PARTITION_COUNT_ROUTE = st.one_of(
    SHAPED["--pattern"].map(lambda v: [f"--pattern={v}"]),
    int_list.map(lambda v: [f"--elements={v}"]),
    int_list.map(lambda v: [f"--euler-primes={v}"]),
    st.tuples(st.sampled_from(INTS), st.sampled_from(INTS[:6])).map(
        lambda v: [f"--parts={v[0]}", f"--min-part={v[1]}"]
    ),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.sampled_from(INTS), route=PARTITION_COUNT_ROUTE)
def test_partition_count_route_exits_0_1_or_2(n, route):
    code, out, err = run_within(["partition", "count", *route, "--", n])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def derangement_matrix(n):
    """The --matrix literal with zeros on the diagonal and ones elsewhere."""
    return ";".join(",".join("0" if i == j else "1" for j in range(n)) for i in range(n))


# 25 parts, so D = 325 slot-table rows for any n >= 325
LONG_PATTERN = ",".join([">"] * 24)

# Each fixed work guard at its edge: (argv exactly at the cap, argv just
# past it), the size in the guard's own unit in the comment.
CAP_EDGES = [
    ("master coeff --matrix 1 --degree 30", "master coeff --matrix 1 --degree 31"),  # total degree 30
    (
        f"master coeff --matrix {derangement_matrix(8)} --degree 3,3,3,3,3,3,3,3",
        f"master coeff --matrix {derangement_matrix(8)} --degree 3,3,3,3,3,3,3,4",
    ),  # 4^8 * 8^2 = 2^22 finite-difference products
    (
        f"master coeff --matrix {derangement_matrix(13)} --denominator",
        f"master coeff --matrix {derangement_matrix(14)} --denominator",
    ),  # matrix order 13
    ("compose count 999 99", "compose count 999 100"),  # 10^5 table cells
    ("partition plane 124 --boxed inf,80,100", "partition plane 125 --boxed inf,80,100"),  # 10^6 box-formula cells
    ("compose newcomb 9", "compose newcomb 10"),  # deck of 9 cards
    ("compose count 999 99 --essential", "compose count 999 100 --essential"),  # 10^5 cells, as above
    (
        "invariant check a0^38 --p 2 --transform 1,2,3,5",
        "invariant check a0^39 --p 2 --transform 1,2,3,5",
    ),  # (C(5,3) + 210^2 + 1) * 43 = 1896773 and (C(5,3) + 231^2 + 1) * 44 = 2348368 units, cap 2^21
    (
        "invariant check x^1439 --p 2 --transform 1,2,3,5",
        "invariant check x^1440 --p 2 --transform 1,2,3,5",
    ),  # (C(5,3) + 1 + 1440) * 1444 = 2095244 and (C(5,3) + 1 + 1441) * 1445 = 2098140 units
    (
        "invariant check a0 --p 20 --transform 1e-238,2,3,5",
        "invariant check a0 --p 20 --transform 1e-239,2,3,5",
    ),  # a 793- and a 797-bit transform: (C(23,3) + 21^2 + 1) * (23 + 900 or 961) = 2042599 and 2177592 units
    ("puzzle stamps 12", "puzzle stamps 13"),  # 12 stamps
    ("puzzle latin --reduced 6", "puzzle latin --reduced 7"),  # order 6
    ("partition count 20000 --parts 50", "partition count 20001 --parts 50"),  # n * p = 10^6
    ("puzzle latin --total 4", "puzzle latin --total 5"),  # order 4
    ("compose enum 20", "compose enum 21"),  # 2^19 output lines
    ("partition enum 55", "partition enum 56"),  # p(55) = 451276 and p(56) = 526823 lines, cap 2^19
    ("partition conj 1000000,1", "partition conj 1000001,1"),  # 10^6 parts of the conjugate
    ("divisor series A --n 1000 --k 10", "divisor series A --n 1001 --k 10"),  # k * n^2 = 10^7
    (
        "divisor series B --max-n 1000 --max-k 10",
        "divisor series B --max-n 1000 --max-k 11",
    ),  # max_k * max_n^2 = 10^7
    (
        "divisor series A --max-n 2 --max-k 50000",
        "divisor series A --max-n 2 --max-k 50001",
    ),  # max_n * max_k = 10^5 table cells
    (
        "master rencontres 0 20,20,20,20,20,20,20,20,20,20",
        "master rencontres 0 20,20,20,20,20,20,20,20,20,21",
    ),  # 200 letters
    (
        "invariant covariant a0^2*a2-a0*a1^2 --p 30",
        "invariant covariant a0^2*a2-a0*a1^2 --p 31",
    ),  # 86 * C(33,3) * 31 = 14545696 and 89 * C(34,3) * 32 = 17042432 term entries, cap 2^24
    (
        "partition enum 8191 --max-part 2",
        "partition enum 8192 --max-part 2",
    ),  # 4096 * 8191 = 33550336 and 4097 * 8192 = 33562624 listed parts at most, cap 2^25
    ("partition perfect 13055", "partition perfect 21671"),  # 2^20 and 1048684 parts
    ("puzzle weights 1048572", "puzzle weights 1048582"),  # 1048573 and 1048583 prime: parts u
    ("divisor potency 1099513724928", "divisor potency 1099513724929"),  # (2^20 + 1)^2 - 1, trial divisors to 2^20
    ("divisor potency --count 7876", "divisor potency --count 7877"),  # 4194191 and 4195186 additions
    (
        "election simulate --share 0.5 --constituencies 64 --size 65536",
        "election simulate --share 0.5 --constituencies 64 --size 65537",
    ),  # 2^22 and 4194368 voters
    ("partition plane 24 --enum", "partition plane 25 --enum"),  # PL = 451194 and 696033 lines, cap 2^19
    ("puzzle contacts 12 --list", "puzzle contacts 13 --list"),  # I = 140152 and 568504 lines, cap 2^19
    ("puzzle triangles 64 --list", "puzzle triangles 65 --list"),  # 2^18 and 274625 candidates
    (
        "puzzle triangles 22 --squares --format json",
        "puzzle triangles 23 --squares --format json",
    ),  # 234256 and 279841 candidates, cap 2^18
    (
        "puzzle cubes --mode any-coloring --colors 8 --list",
        "puzzle cubes --mode any-coloring --colors 9 --list",
    ),  # 2^18 and 531441 candidates
    ("partition table --demorgan 1000", "partition table --demorgan 1001"),  # 10^6 table cells
    ("partition modular 1000000 --mod 1", "partition modular 1000001 --mod 1"),  # 10^6 parts printed
    (
        "partition modular 1000000,999999 --mod 2",
        "partition modular 1000001,1000000 --mod 2",
    ),  # the sum of ceil(q / 2): 10^6 and 1000001 parts
    ("partition table 10000", "partition table 10001"),  # 10^4 rows
    ("partition plane --xy 32", "partition plane --xy 33"),  # DP size 2^20 and 1185921
    ("puzzle rod 100", "puzzle rod 101"),  # 100 marks
    ("partition count 10000", "partition count 10001"),  # 10^4 rows of p(0..N)
    ("partition parity 10000", "partition parity 10001"),  # as above
    ("partition parity --digits 10000", "partition parity --digits 10001"),  # as above
    ("partition plane 99", "partition plane 100"),  # 99^2 * 100 = 980100 and 1010000 box cells, cap 10^6
    ("divisor sigma2 99", "divisor sigma2 100"),  # as above
    ("master derange 200", "master derange 201"),  # 200 letters
    ("compose conj 1000000", "compose conj 1000001"),  # 10^6 parts printed
    ("compose zigzag 1000000", "compose zigzag 1000001"),  # as above
    ("partition scale 1000000", "partition scale 1000001"),  # as above
    ("puzzle contacts 32768", "puzzle contacts 32769"),  # 2^15 letters
    (
        "partition count 999964 --pattern >,>",
        "partition count 999965 --pattern >,>",
    ),  # 3 * (6^2 + 999964) = 3 * 10^6 and 3000003, D = 6, cap 3 * 10^6
    (
        f"partition count 14375 --pattern {LONG_PATTERN}",
        f"partition count 14376 --pattern {LONG_PATTERN}",
    ),  # 25 * (325^2 + 14375) = 3 * 10^6 and 3000025, the table's 25 * 325^2 = 2640625 of it
    (
        "partition count 3162 --euler-primes 3",
        "partition count 3163 --euler-primes 3",
    ),  # 3162^2 = 9998244 and 10004569, cap 10^7
    (
        "partition count 2097151 --elements 1,2",
        "partition count 2097152 --elements 1,2",
    ),  # 2^22 and 4194306 table cells
    ("compose count 524289 --order-k 2", "compose count 524290 --order-k 2"),  # 2^19 bits
    ("invariant omega a0 --p 512", "invariant omega a0 --p 513"),  # order 2^9
    (
        "invariant basis 100 3 84",
        "invariant basis 100 3 85",
    ),  # 616 * 631 + 2 * 631 * 101 = 516158 and 631 * 645 + 2 * 645 * 101 = 537285, cap 2^19
    ("invariant roots --p 90 --trials 16", "invariant roots --p 90 --trials 17"),  # 129856 and 137972, cap 2^17
    ("pattern tiling --extent 32", "pattern tiling --extent 33"),  # extent 32
    ("puzzle rooks 65535 32768", "puzzle rooks 65535 32769"),  # 32768 * 16 = 2^19 bits
    (
        "election prob 32768 32768 15420 15420",
        "election prob 32768 32768 15421 15420",
    ),  # 30840 * 17 = 524280 and 524297 bits, cap 2^19
]


@pytest.mark.parametrize("at_cap,past_cap", CAP_EDGES, ids=[e[1] for e in CAP_EDGES])
def test_work_cap_edges(at_cap, past_cap):
    code, out, err = run(at_cap)
    assert code == 0 and out != "" and err == ""
    code, out, err = run(past_cap)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


UNGUARDED_BEFORE = [
    f"master coeff --matrix {derangement_matrix(30)} --degree {','.join(['1'] * 30)}",
    f"master coeff --matrix {derangement_matrix(20)} --denominator",
    "compose count 100000 100000",
    "partition enum 90",  # 56634173 lines; a MemoryError when listings were built whole
    "partition conj 99999999999999999999,1",  # an OverflowError traceback from conjugate
    "partition enum 1000000000000 --max-part 1",  # a MemoryError: one line of 10^12 parts
    "partition perfect 720719",  # a MemoryError after 22 s: 510002468 parts
    "divisor potency 1000000000000000003",  # trial division to 10^9, past 60 s
    "divisor factorize 1000000000000000003",
    "divisor potency --count 1000000000000",  # a MemoryError from the sieve
    "puzzle weights 100 --pans two",  # a walk of all p(100) partitions
    "invariant check a0^100 --p 4 --transform 1,2,3,5",  # an expansion of A_0^100, past 60 s
    "invariant check x^2147483647 --p 2 --transform 1,2,3,5",  # past 20 s: x, y degree unpriced
    "election simulate --share 0.5 --constituencies 1000000 --size 1000000",  # 10^12 draws
    "election simulate --share 0.5 --constituencies 1000000000000 --size -1",  # a MemoryError
    "partition plane 100000 --enum",  # N = 20 printed 1.2 MB in 1.2 s, and N had no bound
    "puzzle contacts 14 --list",  # past 20 s
    "puzzle triangles 200 --list",  # 30 s and 22 MB
    "puzzle triangles 200 --squares --format json",
    "puzzle cubes --mode any-coloring --colors 50 --format json",  # 50^6 candidates
    "partition table --demorgan 3000",  # a RecursionError traceback
    "partition modular 300000000 --mod 1",  # a MemoryError traceback
    "puzzle rod 300",  # 13 s
    "partition table 200000",  # past 20 s
    "invariant syzygant --p 3000 --k 2",  # a RecursionError traceback
    "partition plane 100000000000000000000",  # an OverflowError traceback
    "divisor sigma2 100000000000000000000",  # as above
    "partition count 100000000000000000000 --elements 1,2",  # as above
    "partition scale 100000000000000000000",  # as above
    "compose zigzag 100000000000000000000",  # as above
    "partition count 100000",  # 10.3 s
    "partition parity 100000",
    "partition parity --digits 100000",
    "partition plane 1000",  # 17.5 s
    "divisor sigma2 1000",
    "master derange 2000",  # past 20 s
    "compose conj 3000000000",  # past 20 s
    "puzzle contacts 100000",  # 4.8 s
    "partition count 100000000000000000000 --pattern >,>",  # past 10 s
    "partition count 100000000 --euler-primes 3",  # past 20 s
    "partition count 10000000 --elements 1,2",  # 1.7 s
    "compose count 1000000 --order-k 3",  # 4.3 s
    "invariant omega a0 --p 100000000",  # past 20 s
    "invariant roots --p 400 --trials 20",  # 13 s
    "invariant roots --trials 10000000",  # past 20 s
    "pattern tiling --extent 200",  # past 20 s
    "puzzle rooks 1000000 1000000",  # a 10^6-digit factorial
    "election prob 0 10000000 0 5000000",  # binomials of 10^7 bits
    "invariant basis 10 --protomorphs 10",  # an AssertionError traceback at weight 9
    f"invariant check a0 --p 20 --transform 1/{'7' * 4000},2,3,5",  # 38.7 s: the transform's bits unpriced
]


@pytest.mark.parametrize(
    "argv",
    UNGUARDED_BEFORE,
    ids=[
        "30x30 degree 1^30", "order 20 denominator", "compose count 10^5 10^5",
        "partition enum 90", "partition conj 10^20,1", "partition enum 10^12 --max-part 1",
        "partition perfect 720719", "divisor potency 10^18+3", "divisor factorize 10^18+3",
        "divisor potency --count 10^12", "puzzle weights 100 --pans two",
        "invariant check a0^100 --p 4", "invariant check x^(2^31 - 1) --p 2", "election simulate 10^6 x 10^6",
        "election simulate 10^12 x -1", "partition plane 10^5 --enum", "puzzle contacts 14 --list",
        "puzzle triangles 200 --list", "puzzle triangles 200 --squares json",
        "puzzle cubes any-coloring 50 json", "partition table --demorgan 3000",
        "partition modular 3*10^8 --mod 1", "puzzle rod 300", "partition table 200000",
        "invariant syzygant --p 3000", "partition plane 10^20", "divisor sigma2 10^20",
        "partition count 10^20 --elements 1,2", "partition scale 10^20", "compose zigzag 10^20",
        "partition count 10^5", "partition parity 10^5", "partition parity --digits 10^5",
        "partition plane 1000", "divisor sigma2 1000", "master derange 2000",
        "compose conj 3*10^9", "puzzle contacts 10^5", "partition count 10^20 --pattern >,>",
        "partition count 10^8 --euler-primes 3", "partition count 10^7 --elements 1,2",
        "compose count 10^6 --order-k 3", "invariant omega a0 --p 10^8",
        "invariant roots --p 400 --trials 20", "invariant roots --trials 10^7",
        "pattern tiling --extent 200", "puzzle rooks 10^6 10^6", "election prob 0 10^7 0 5*10^6",
        "invariant basis 10 --protomorphs 10", "invariant check a0 --p 20 with 1/<4000 sevens>",
    ],
)
def test_formerly_unguarded_argv_refuse_at_once(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "combanal.cli", *argv.split()],
        capture_output=True, text=True, timeout=5, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# argv that ended in a traceback or in a usage message only argparse's
# own file arguments had: each is now one usage line, exit 2
FORMERLY_TRACEBACK_USAGE = [
    ("invariant basis 3", "invariant basis needs j and w (or --protomorphs)"),  # a TypeError
    (
        "election simulate --share 0.5 --sizes-file /nonexistent",
        "argument --sizes-file: can't open '/nonexistent': No such file or directory",
    ),  # a FileNotFoundError
]


@pytest.mark.parametrize("argv,message", FORMERLY_TRACEBACK_USAGE, ids=[u[0] for u in FORMERLY_TRACEBACK_USAGE])
def test_formerly_traceback_argv_are_usage_errors(argv, message):
    assert run(argv) == (2, "", f"usage error: {message}\n")


def test_sizes_file_that_is_a_directory_is_a_usage_error(tmp_path):
    # an IsADirectoryError
    assert run(["election", "simulate", "--share", "0.5", "--sizes-file", str(tmp_path)]) == (
        2, "", f"usage error: argument --sizes-file: can't open {str(tmp_path)!r}: Is a directory\n"
    )


def test_share_is_checked_before_the_sizes_file_is_read():
    assert run("election simulate --share 2 --sizes-file /nonexistent") == (
        1, "", "error: share must be strictly between 0 and 1\n"
    )


def test_sizes_file_line_that_is_no_integer_is_refused(tmp_path):
    path = tmp_path / "sizes.txt"
    path.write_text("100\nten\n")
    assert run(["election", "simulate", "--share", "0.5", "--sizes-file", str(path)]) == (
        1, "", "error: constituency sizes must be positive integers\n"
    )


def test_out_into_a_missing_directory_is_refused_before_the_handler_runs(monkeypatch):
    calls = []
    monkeypatch.setitem(cli.RUN, ("puzzle", "rod"), lambda args: calls.append(args))
    assert run("puzzle rod 8 --out /nonexistent/rod.txt") == (
        2, "", "usage error: argument --out: can't open '/nonexistent/rod.txt': no such directory\n"
    )
    assert calls == []


@pytest.mark.parametrize("argv,message", [
    ("election cubelaw nan 1 5", "votes and exponent must be finite"),  # leaked "cannot convert float NaN"
    ("election cubelaw inf 1 5", "votes and exponent must be finite"),
    ("election cubelaw 1 1 5 --exponent nan", "votes and exponent must be finite"),
    ("invariant syzygant --k -1", "k must be non-negative"),  # leaked "negative power of a polynomial"
    ("partition parity 5 --digits 0", "k must be at least 1"),  # printed the parity of p(5)
    ("partition parity 5 --digits -3", "k must be at least 1"),
    ("compose conj ;", "parts must be nonzero non-negative pairs"),  # printed (0,0)
    ("compose conj ;;", "parts must be nonzero non-negative pairs"),
    ("compose conj 1,0;0,0", "parts must be nonzero non-negative pairs"),
    ("compose conj 1,0;;0,1", "parts must be nonzero non-negative pairs"),  # printed (1,1)
    ("compose conj 1,0;;", "parts must be nonzero non-negative pairs"),  # printed (1,0)
    ("compose conj ;;1,0", "parts must be nonzero non-negative pairs"),
])
def test_formerly_leaked_builtin_messages_are_refusals(argv, message):
    assert run(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", ["compose conj ;1,0", "compose conj 1,0;", "compose conj ;1,0;"])
def test_empty_end_marks_a_one_part_bipartite_composition(argv):
    assert run(argv) == (0, "(1,0)\n", "")


def test_cube_law_past_the_float_range_answers():
    # an OverflowError traceback from 1e308 ** 3; equal votes split 2.5 seats down
    assert run("election cubelaw 1e308 1e308 5") == (0, "2 3\n", "")


def test_dispatch_lets_a_bug_through(monkeypatch):
    # only a DomainError is a refusal: any other exception is not caught
    def bug(args):
        return [][0]

    monkeypatch.setitem(cli.RUN, ("puzzle", "rod"), bug)
    with pytest.raises(IndexError):
        run("puzzle rod 8")


def test_readme_cap_table_cites_every_cap_with_its_value():
    # each row prints a cap's value and cites the constant, e.g. "10⁶ (`partitions.BOX_CELL_CAP`)"
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = re.findall(r"^\|[^|]+\|[^|]+\| ([^|(]+?) \(`(\w+)\.(\w+)`\) \|$", fh.read(), re.M)
    digits = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
    cited = set()
    for printed, module, name in rows:
        base, power = re.fullmatch(r"(\d+)([⁰¹²³⁴⁵⁶⁷⁸⁹]*)", printed.split(",")[0]).groups()
        value = int(base) ** int(power.translate(digits) or 1)
        assert getattr(importlib.import_module(f"combanal.{module}"), name) == value, name
        cited.add(f"{module}.{name}")
    defined = {
        f"{module}.{name}"
        for module in combanal.__all__
        for name in vars(importlib.import_module(f"combanal.{module}"))
        if name.endswith("_CAP")
    }
    assert cited == defined


def test_readme_names_the_commands_that_print_csv_and_svg():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    for fmt in ("csv", "svg"):
        named = re.search(rf"`{fmt}` [^.]*?for ((?:`\w+ \w+`(?:, | and )?)+)", text).group(1)
        listed = {key for key, cmd in cli.COMMANDS.items() if fmt in cmd.formats}
        assert {tuple(c.split()) for c in re.findall(r"`(\w+ \w+)`", named)} == listed, fmt


FORMERLY_UNBOUNDED = [
    ("puzzle weights 56", "3 " * 18 + "1 1\n"),  # 57 = 3 * 19
    ("puzzle weights 1000000", " ".join(["101"] * 9900 + ["1"] * 100) + "\n"),  # 101 * 9901
    ("divisor totient 100000000", "40000000\n"),
    ("partition plane 30 --boxed 6,6,6", "1142044\n"),
    ("partition plane 30 --boxed inf,8,8", "4091065\n"),
    ("partition count 300 --euler-primes 3", "456522576 456522576\n"),
    ("master rencontres 0 2,2,2,2,2,2,2,2,2", "1596005408152\n"),
    ("partition enum 4001 --allowed 2,4,6,8,10,12", "(none)\n"),  # no even sum is odd
    ("divisor factorize 963761198400", "266865794\n"),  # 6720 divisors; past 20 s by recursion
]


@pytest.mark.parametrize("argv,output", FORMERLY_UNBOUNDED, ids=[f[0] for f in FORMERLY_UNBOUNDED])
def test_formerly_unbounded_argv_answer_at_once(argv, output):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "combanal.cli", *argv.split()],
        capture_output=True, text=True, timeout=5, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, output, "")


def test_xy_polynomial_of_fourteen_answers_at_once():
    # a scan of 4^14 hook-set pairs ran past 20 s; the DP over hooks is quick
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "combanal.cli", "partition", "plane", "--xy", "14"],
        capture_output=True, text=True, timeout=5, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    # the lightest stack is hook 14 alone (27 cells), the heaviest both full layers
    assert proc.stdout.startswith("x^27 + ") and proc.stdout.endswith(" + x^392\n")


def test_divisor_series_table_of_two_hundred_rows_answers_at_once():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "combanal.cli", "divisor", "series", "A", "--max-n", "200", "--max-k", "10"],
        capture_output=True, text=True, timeout=5, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 200 and lines[0] == "1 1 0 0 0 0 0 0 0 0 0"


@pytest.mark.parametrize("k", ["1000000", "1000000000000"])
def test_divisor_series_with_more_slots_than_weight_answers_zero_at_once(k):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "combanal.cli", "divisor", "series", "A", "--n", "1", "--k", k],
        capture_output=True, text=True, timeout=5, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


@pytest.mark.parametrize("p", ["1", "0", "-2"])
def test_roots_needs_order_two(p):
    code, out, err = run(["invariant", "roots", "--p", p])
    assert (code, out, err) == (1, "", f"error: p must be at least 2, not {p}\n")


@pytest.mark.parametrize("primes", ["0", "1", "-3", "4", "3,9"])
def test_euler_primes_must_be_primes(primes):
    code, out, err = run(["partition", "count", "5", "--euler-primes", primes])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_mayblox_builds_the_cubes_once(monkeypatch):
    from combanal import recreations as rc

    build = rc.generate_cubes
    calls = []
    monkeypatch.setattr(rc, "generate_cubes", lambda *a: calls.append(a) or build(*a))
    for argv in ("puzzle mayblox --any", "puzzle mayblox --target 5"):
        calls.clear()
        code, out, err = run(argv)
        assert code == 0 and out.endswith("verified True\n")
        assert len(calls) == 1


def test_exact_parts_table_cap_refuses_in_one_line():
    code, out, err = run("partition count 100000 --parts 50")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestOutputBoundEnumerations:
    # bytes of the part-by-part recursion and the eager renderers
    DISTINCT_12 = {
        "text": "12\n11 1\n10 2\n9 3\n9 2 1\n8 4\n8 3 1\n7 5\n7 4 1\n7 3 2\n"
        "6 5 1\n6 4 2\n6 3 2 1\n5 4 3\n5 4 2 1\n",
        "json": "[[12],[11,1],[10,2],[9,3],[9,2,1],[8,4],[8,3,1],[7,5],[7,4,1],[7,3,2],"
        "[6,5,1],[6,4,2],[6,3,2,1],[5,4,3],[5,4,2,1]]\n",
        "csv": "partition\n12\n11+1\n10+2\n9+3\n9+2+1\n8+4\n8+3+1\n7+5\n7+4+1\n7+3+2\n"
        "6+5+1\n6+4+2\n6+3+2+1\n5+4+3\n5+4+2+1\n",
    }

    @pytest.mark.parametrize("fmt", sorted(DISTINCT_12))
    def test_distinct_partitions_bytes(self, fmt):
        assert run(f"partition enum 12 --distinct --format {fmt}") == (0, self.DISTINCT_12[fmt], "")

    @pytest.mark.parametrize(
        "argv,expected",
        [
            ("partition enum 0", "()\n"),
            ("partition enum 5 --allowed 4", "(none)\n"),
            ("partition enum 0 --format json", "[[]]\n"),
            ("partition enum 0 --format csv", "partition\n\n"),
            ("compose enum 3 --format json", "[[1,1,1],[1,2],[2,1],[3]]\n"),
        ],
    )
    def test_edge_outputs(self, argv, expected):
        assert run(argv) == (0, expected, "")

    def test_single_value_partition_of_three_thousand(self):
        code, out, err = run("partition enum 3000 --max-part 1")
        assert (code, err) == (0, "")
        assert out == " ".join(["1"] * 3000) + "\n"

    @pytest.mark.parametrize("argv", ["partition enum 12 --format json", "compose enum 6 --format json"])
    def test_text_listing_is_built_only_for_text(self, monkeypatch, argv):
        # a listing asks its walk for tuples (sep None) for json and for
        # joined lines (sep " ") for text, and only json calls json.dumps
        from combanal import compositions as cp
        from combanal import partitions as pt

        seps, dumps = [], []
        for module, name in [(pt, "partition_batches"), (cp, "composition_batches")]:
            walk = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, sep=None, walk=walk: seps.append(sep) or walk(*a, sep=sep)
            )
        json_dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: dumps.append(a) or json_dumps(*a, **k))
        code, out, err = run(argv)
        assert (code, err) == (0, "") and out.startswith("[[")
        assert seps == [None] and dumps
        seps.clear()
        dumps.clear()
        code, out, err = run(argv.replace("json", "text"))
        assert (code, err) == (0, "") and out[0].isdigit()
        assert seps == [" "] and dumps == []

    def test_three_parts_of_three_hundred(self):
        code, out, err = run("partition enum 300 --parts 3")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 7500
        assert lines[0] == "298 1 1" and lines[-1] == "100 100 100"

    def test_free_pattern_at_four_hundred(self):
        import math

        assert run("partition count 400 --pattern *,*,*,*") == (0, f"{math.comb(399, 4)}\n", "")


@st.composite
def enum_flags(draw):
    """partition enum flags and the PartitionConstraint they stand for."""
    min_part = draw(st.integers(1, 5))
    c = pt.PartitionConstraint(
        max_part=draw(st.none() | st.integers(min_part, 14)),
        num_parts=draw(st.none() | st.integers(0, 8)),
        min_part=min_part,
        distinct=draw(st.booleans()),
        allowed_parts=draw(st.none() | st.frozensets(st.integers(1, 16), min_size=1, max_size=7)),
    )
    flags = ["--min-part", str(min_part)]
    for flag, value in [("--max-part", c.max_part), ("--parts", c.num_parts)]:
        if value is not None:
            flags += [flag, str(value)]
    if c.distinct:
        flags.append("--distinct")
    if c.allowed_parts is not None:
        flags += ["--allowed", ",".join(map(str, sorted(c.allowed_parts)))]
    return flags, c


def eager_listing(items, spell):
    """The text and json bytes of a listing joined whole into one string."""
    return {
        "text": "\n".join(map(spell, items)) + "\n",
        "json": json.dumps(items, separators=(",", ":")) + "\n",
    }


def eager_partition_listing(items):
    """The bytes each format printed when a listing was built whole."""
    return {
        "text": ("\n".join(" ".join(map(str, p)) if p else "()" for p in items) or "(none)") + "\n",
        "json": json.dumps(items, separators=(",", ":")) + "\n",
        "csv": "\n".join(["partition"] + ["+".join(map(str, p)) for p in items]) + "\n",
    }


# Every refusal of a listing that its handler or render() makes, with its
# exit code: each comes before the first chunk, so stdout stays empty.
LISTING_REFUSALS = [
    ("partition enum -1", 1),
    ("partition enum 56", 1),
    ("partition enum 56 --format json", 1),
    ("partition enum 56 --format csv", 1),
    ("partition enum 100 --max-part 100", 1),  # counted past the cap
    ("partition enum 1000000000 --max-part 2", 1),
    ("partition enum 10 --allowed x,y", 2),
    ("partition enum 10 --min-part 0", 1),
    ("partition enum 10 --max-part 0", 1),
    ("partition enum 10 --parts -1", 1),
    ("compose enum 0", 1),
    ("compose enum 21", 1),
    ("compose enum 21 --format json", 1),
    ("partition plane 25 --enum", 1),
    ("partition plane 25 --enum --format json", 1),
    ("puzzle contacts 13 --list", 1),
    ("puzzle contacts 13 --list --format json", 1),
]
# and the ones dispatch makes before the handler runs
DISPATCH_LISTING_REFUSALS = LISTING_REFUSALS + [("compose enum 3 --format csv", 2)]


# Listings and the bound on their traced peak in MiB, set from measurement
LISTING_PEAKS = [
    ("partition enum 45", 3),
    ("compose enum 18", 3),
    ("partition plane 20 --enum", 12),
    ("puzzle contacts 11 --list", 3),
]


class _Discard:
    """A stdout that drops what it is given."""

    def write(self, text):
        return len(text)

    def writelines(self, chunks):
        for _ in chunks:
            pass


class TestStreamedListings:
    @settings(max_examples=150)
    @given(st.integers(0, 20), enum_flags())
    def test_partition_formats_join_the_oracle(self, n, flags_and_constraint):
        flags, c = flags_and_constraint
        expected = eager_partition_listing(enumerate_partitions_oracle(n, c))
        for fmt in ("text", "json", "csv"):
            argv = ["partition", "enum", str(n), *flags, "--format", fmt]
            assert run(argv) == (0, expected[fmt], "")

    @pytest.mark.parametrize("n", range(1, 15))
    def test_composition_formats_join_the_oracle(self, n):
        items = enumerate_compositions_oracle(n)
        text = "\n".join(" ".join(map(str, c)) for c in items) + "\n"
        assert run(f"compose enum {n}") == (0, text, "")
        json_text = json.dumps(items, separators=(",", ":")) + "\n"
        assert run(f"compose enum {n} --format json") == (0, json_text, "")

    @pytest.mark.parametrize("n", range(13))
    def test_plane_partition_formats_join_the_oracle(self, n):
        # n = 0 lists one empty plane partition: "\n" and "[[]]\n"
        items = plane_partitions_oracle(n)
        expected = eager_listing(items, lambda pp: "/".join("".join(map(str, row)) for row in pp))
        for fmt in ("text", "json"):
            assert run(f"partition plane {n} --enum --format {fmt}") == (0, expected[fmt], "")

    @pytest.mark.parametrize("n", range(1, 10))
    def test_contact_system_formats_join_the_oracle(self, n):
        expected = eager_listing(contact_systems_oracle(n), lambda s: ",".join(map(str, s)))
        for fmt in ("text", "json"):
            assert run(f"puzzle contacts {n} --list --format {fmt}") == (0, expected[fmt], "")

    @pytest.mark.parametrize("argv", [
        "partition enum 30", "partition enum 30 --format csv",
        "partition enum 24 --distinct --format json", "partition enum 5 --allowed 4",
        "compose enum 14", "compose enum 13 --format json",
    ])
    def test_out_file_gets_the_stdout_bytes(self, tmp_path, argv):
        code, out, err = run(argv)
        path = tmp_path / "listing"
        assert (code, err) == (0, "") and run(f"{argv} --out {path}") == (0, "", "")
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv,code", DISPATCH_LISTING_REFUSALS, ids=[r[0] for r in DISPATCH_LISTING_REFUSALS])
    def test_refusal_prints_nothing(self, argv, code):
        got, out, err = run(argv)
        assert (got, out) == (code, "")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv,code", LISTING_REFUSALS, ids=[r[0] for r in LISTING_REFUSALS])
    def test_refusal_comes_before_the_first_chunk(self, argv, code):
        # the handler or render() raises; no chunk iterable reaches the writer
        args = cli.build_parser().parse_args(argv.split())
        with pytest.raises((ValueError, cli.UsageError)):
            cli.RUN[args.command, args.action](args).render(args.format)

    @pytest.mark.parametrize("argv,mib", LISTING_PEAKS, ids=[p[0] for p in LISTING_PEAKS])
    def test_listing_memory_is_one_batch(self, argv, mib):
        # 89134 lines (1.9 MB), 131072 lines (2.4 MB), 75278 plane
        # partitions and 35696 contact systems.  Built whole, the listing
        # and its text took tens of MiB; streamed, the peaks were 1.4, 0.9,
        # 8.2 (the plane partitions' completion memo) and 1.3 MiB.
        run(re.sub(r"\d+", "3", argv))  # the parser and the module, outside the trace
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                code = cli.dispatch(argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < mib * 2**20


# Runs ARGV with stdout to /dev/null and prints its exit code and peak RSS
# in KiB.  A child's peak counts the process it was forked from, so the
# command is started from this small interpreter, not from the test runner.
PEAK_RSS = (
    "import os, subprocess, sys; "
    "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(p.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def peak_rss_kib(argv):
    """(exit code, peak RSS in KiB) of `combanal ARGV` run as a command."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "combanal.cli", *argv.split()],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    code, peak_kib = map(int, proc.stdout.split())
    return code, peak_kib


@pytest.mark.parametrize("argv", ["partition count 999964 --pattern >,>", f"partition count 14375 --pattern {LONG_PATTERN}"])
def test_relation_patterns_at_the_cap_peak_below_30_mib(argv):
    # 18.3 and 21.3 MiB measured; the slot table to 1672, the old edge,
    # peaked at 79.8 MiB
    code, peak_kib = peak_rss_kib(argv)
    assert code == 0 and peak_kib < 30 * 1024


@pytest.mark.parametrize("argv", ["partition enum 55", "compose enum 20"])
def test_largest_listings_peak_below_40_mib(argv):
    # the largest listings within their caps, 13.8 MB and 10 MB of text;
    # built whole they peaked at 216 and 158 MiB
    code, peak_kib = peak_rss_kib(argv)
    assert code == 0 and peak_kib < 40 * 1024


@pytest.mark.parametrize("argv,mib", [("partition plane 24 --enum", 75), ("puzzle contacts 12 --list", 30)])
def test_largest_plane_and_contact_listings_peak_below_their_bounds(argv, mib):
    # the largest within their caps, 451194 plane partitions and 140152
    # contact systems: built whole they peaked at 123.5 and 54.2 MiB,
    # streamed at 62 and 20 MiB (the plane partitions keep their
    # completion memo)
    code, peak_kib = peak_rss_kib(argv)
    assert code == 0 and peak_kib < mib * 1024


class TestParserReuse:
    ARGV = [
        "partition count 30",
        "partition count 30",
        "partition count abc",
        "puzzle stamps 9",
        "--help",
        "partition count --help",
        "puzzle stamps 9",
        "pattern tiling --extent 1 --format json",
        "puzzle cubes --format svg",
        "master derange 6",
    ]

    def test_reused_parser_matches_fresh_parser(self, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        monkeypatch.setattr(cli, "_PARSER", None)
        reused = [run(argv) for argv in self.ARGV]
        assert len(builds) == 1
        fresh = []
        for argv in self.ARGV:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(run(argv))
        assert len(builds) == 1 + len(self.ARGV)
        assert reused == fresh
        assert reused[4][0] == 0 and reused[4][1].startswith("usage: combanal")
        assert reused[2][0] == 2 and reused[3] == (0, "4536\n", "")

    def test_not_built_at_import(self):
        assert fresh_interpreter("import combanal.cli as c; print(c._PARSER)") == "None\n"


def _corpus():
    """Every argv of the golden corpus, the help snapshot, the benchmark's
    four pools and EDGE, each once."""
    tests = os.path.dirname(os.path.abspath(__file__))
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(tests, os.pardir, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with open(os.path.join(tests, "cli_help_snapshot.json"), encoding="utf-8") as fh:
        snapshot = json.load(fh)["surface"]
    pools = [argv for pool in workloads.POOLS.values() for argv in pool]
    return list(dict.fromkeys([g[0] for g in GOLDEN] + sorted(snapshot) + pools + TestEntryParser.EDGE))


class TestEntryParser:
    # how argparse's two outer levels hand strings on to an entry's parser
    EDGE = [
        "partition enum 10 --par 3",
        "partition enum 10 --parts=5",
        "partition enum -- 10",
        "partition count 5 --",
        "partition count -- 5",
        "partition -- count 5",
        "-- partition count 5",
        "partition count 5 -h",
        "partition count 5 --he",
        "partition count 5 extra",
        "partition count 5 --bogus",
        "partition enum 10 --parts",
        "partition",
        "partition count",
        "",
    ]

    def test_matches_the_whole_tree_and_never_parses_it_for_a_valid_request(self, monkeypatch):
        # help wraps at the width the snapshot was written at
        monkeypatch.setenv("COLUMNS", "80")
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        monkeypatch.setattr(cli, "_PARSER", None)
        run("partition count 1")
        whole_tree_parses = []
        parse_args = cli._PARSER.parse_args
        monkeypatch.setattr(cli._PARSER, "parse_args",
                            lambda argv: whole_tree_parses.append(argv) or parse_args(argv))
        reference, valid = build(), []

        def whole_tree(parser, argv):
            args = reference.parse_args(argv)
            valid.append(argv)
            return args

        mismatched, parsed_whole = [], []
        for argv in _corpus():
            got = run(argv)
            if whole_tree_parses:
                parsed_whole.append(argv)
                whole_tree_parses.clear()
            with monkeypatch.context() as m:
                m.setattr(cli, "_parse", whole_tree)
                if run(argv) != got:
                    mismatched.append(argv)
        assert mismatched == []
        assert len(builds) == 1
        requests = [" ".join(argv) for argv in valid if tuple(argv[:2]) in cli.COMMANDS]
        assert len(requests) > 200
        assert set(parsed_whole).isdisjoint(requests)

    def test_extra_arguments_print_the_top_level_usage(self):
        code, out, err = run("partition count 5 --bogus")
        assert (code, out) == (2, "")
        assert err.startswith("usage: combanal [-h]\n                {partition,compose,")
        assert err.endswith("combanal: error: unrecognized arguments: --bogus\n")


def fresh_interpreter(code: str, *argv: str) -> str:
    """stdout of `code` run by a new interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, env=env
    ).stdout


class TestImportIsolation:
    # Which modules are loaded is a property of the whole process, so each
    # case runs in a new interpreter.
    PROBE = (
        "import contextlib, io, json, sys\n"
        "import combanal.cli as cli\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.dispatch(sys.argv[1:])\n"
        "print(json.dumps({\n"
        "    'code': code, 'out': out.getvalue(),\n"
        "    'at_import': sorted(m for m in before if m.startswith('combanal')),\n"
        "    'added': sorted(m for m in set(sys.modules) - before if m.startswith('combanal')),\n"
        "}))\n"
    )

    @pytest.mark.parametrize(
        "argv,code,output,added",
        [
            ("partition count 30", 0, "5604\n", ["combanal.partitions"]),
            ("master derange 4", 0, "9\n", ["combanal.exactcore", "combanal.masterthm"]),
            ("partition count abc", 2, "", []),
            ("puzzle rooks 8 2", 0, "56\n", ["combanal.partitions", "combanal.recreations"]),
            ("invariant weight 3 4", 0, "6\n", ["combanal.exactcore", "combanal.invariants"]),
        ],
    )
    def test_dispatch_loads_only_its_module(self, argv, code, output, added):
        report = json.loads(fresh_interpreter(self.PROBE, *argv.split()))
        assert report["at_import"] == ["combanal", "combanal.cli"]
        assert (report["code"], report["out"], report["added"]) == (code, output, added)

    def test_package_attributes_load_on_first_use(self):
        code = (
            "import sys, combanal\n"
            "print(sorted(m for m in sys.modules if m.startswith('combanal.')))\n"
            "print(combanal.masterthm.derangements(4))\n"
            "from combanal import patterns\n"
            "print(patterns.BASES['hexagon'], set(combanal.__all__) <= set(dir(combanal)))\n"
            "print('combanal.invariants' in sys.modules, 'combanal.probelect' in sys.modules)\n"
        )
        assert fresh_interpreter(code).splitlines() == ["[]", "9", "6 True", "False False"]

    def test_unknown_package_attribute(self):
        import combanal

        with pytest.raises(AttributeError, match="no attribute 'cli_tools'"):
            combanal.cli_tools

    def test_public_names_unchanged(self):
        import combanal

        assert combanal.__all__ == [
            "compositions", "divisors", "exactcore", "invariants", "masterthm",
            "partitions", "patterns", "probelect", "recreations",
        ]
        assert combanal.__version__ == "0.1.0"

    def test_literal_choices_match_the_modules(self):
        from combanal import divisors, patterns

        assert cli.TILE_BASES == tuple(patterns.BASES)
        assert cli.SERIES_KINDS == divisors.SERIES_KINDS


# One argv for each route of every command table entry: a route is the
# set of options that chooses what a handler computes and how it answers.
# SIZES stands for a --sizes-file path.
ROUTES = [
    "partition count 10", "partition count 10 --parts 3", "partition count 10 --parts 3 --min-part 2",
    "partition count 5 --elements 1,2", "partition count 9 --euler-primes 3", "partition count 10 --pattern >,>",
    "partition enum 6", "partition enum 6 --max-part 3 --distinct", "partition enum 6 --parts 2 --allowed 1,3,5",
    "partition table 10", "partition table --demorgan 6", "partition table --u2 7", "partition table --u3 60",
    "partition conj 4,2,1",
    "partition modular 8,5,2,1 --mod 4",
    "partition parity 10", "partition parity --digits 10",
    "partition perfect 7",
    "partition plane 4", "partition plane 4 --enum", "partition plane 4 --boxed inf,4,4", "partition plane --xy 4",
    "partition scale 1,1,1",
    "compose enum 3",
    "compose conj 2,1,4", "compose conj 2,1,4 --tree", "compose conj 3,1;0,1;1,1",
    "compose zigzag 3,3,2,1",
    "compose newcomb 2,1", "compose newcomb 2,1 --ascending",
    "compose count 2 2", "compose count 2 2 --essential", "compose count 4 --order-k 2",
    "master coeff --matrix 0,1;1,0 --degree 2,2", "master coeff --matrix 0,1;1,0 --denominator",
    "master derange 4",
    "master rencontres 0 1,1,1,1",
    "invariant omega a0*a2-a1^2 --p 2",
    "invariant oop a0*a2-a1^2 --p 4",
    "invariant check a0*a2-a1^2 --p 2 --transform 2,1,0,3",
    "invariant covariant a0*a2-a1^2 --p 2",
    "invariant basis 4 2 4", "invariant basis 4 2 3", "invariant basis 4 --protomorphs 4",
    "invariant weight 3 4", "invariant weight 3 5",
    "invariant syzygant --k 3", "invariant syzygant --k 3000000000",
    "invariant roots --trials 2",
    "ballot ahead 2 1",
    "ballot neverbehind 3 2",
    "ballot order 2,1,1",
    "election prob 3 3 1 1",
    "election approx 1000 1000 200 3",
    "election cubelaw 53 47 100",
    "election simulate --share 0.53 --constituencies 10 --size 101",
    "election simulate --share 0.53 --sizes-file SIZES",
    "puzzle cubes", "puzzle cubes --list", "puzzle cubes --associated 3", "puzzle cubes --mode any-coloring --colors 2",
    "puzzle mayblox --target 0", "puzzle mayblox --any",
    "puzzle triangles 4", "puzzle triangles 4 --list", "puzzle triangles 3 --squares",
    "puzzle hexagon --border 2",
    "puzzle stamps 9",
    "puzzle contacts 4", "puzzle contacts 4 --list",
    "puzzle latin --reduced 4", "puzzle latin --total 4",
    "puzzle rod 8",
    "puzzle weights 7", "puzzle weights 13 --pans two",
    "puzzle rooks 8 2",
    "pattern classify 0,0;1/2,1/3;1,0",
    "pattern angles 1/3,1/3,1/3",
    "pattern tile", "pattern tile --cairo", "pattern tile --base triangle --contact 0-1",
    "pattern tiling", "pattern tiling --cairo --extent 1",
    "pattern euler cube", "pattern euler tetrahedron",
    "pattern tetra", "pattern tetra --prism",
    "divisor series B --max-n 4 --max-k 2", "divisor series B --n 5 --k 2",
    "divisor sigma2 4",
    "divisor potency 33", "divisor potency --count 2",
    "divisor factorize 12", "divisor factorize 8 --ordered",
    "divisor totient 12",
]


def _key(argv):
    return tuple(argv.split()[:2])


def test_routes_cover_the_command_table():
    assert {_key(argv) for argv in ROUTES} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv", ROUTES)
def test_route_prints_every_listed_format(tmp_path, argv):
    sizes = tmp_path / "sizes"
    sizes.write_text("100\n201\n")
    for fmt in cli.COMMANDS[_key(argv)].formats:
        code, out, err = run(f"{argv.replace('SIZES', str(sizes))} --format {fmt}")
        assert (code, err) == (0, "") and out.strip(), fmt


# Every route in each format its entry does not list, and argv whose
# handler would work or refuse for a while: each is refused before the
# handler runs.
UNLISTED_FORMATS = [
    f"{argv} --format {fmt}"
    for argv in ROUTES
    for fmt in cli.FORMATS
    if fmt not in cli.COMMANDS[_key(argv)].formats
] + [
    "partition count 999964 --pattern >,> --format csv",  # 0.29 s of counting when the result refused it
    "invariant basis 100 3 84 --format csv",
    "invariant covariant a0^13 --p 6 --format csv",
    "pattern tiling --cairo --extent 32 --format csv",
    "puzzle stamps 20 --format csv",  # a cap refusal, exit 1, when the handler ran first
    "partition count -1 --format csv",
    "invariant oop 1/0 --p 2 --format csv",  # the handler's own usage line
]


@pytest.mark.parametrize("argv", UNLISTED_FORMATS)
def test_unlisted_format_is_refused_before_the_handler_runs(monkeypatch, argv):
    calls = []
    monkeypatch.setitem(cli.RUN, _key(argv), lambda args: calls.append(args))
    fmt = argv.split()[-1]
    assert run(argv) == (2, "", f"usage error: this subcommand has no {fmt} output\n")
    assert calls == []


def test_every_command_prints_text_and_json():
    assert all(cmd.formats[:2] == ("text", "json") for cmd in cli.COMMANDS.values())


class TestFormats:
    def test_json_stable_keys(self):
        code, out, _ = run("divisor potency 33 --format json")
        assert code == 0
        assert out == '{"multiplicity":2,"potency":14}\n'

    def test_csv_has_header(self):
        code, out, _ = run("divisor sigma2 4 --format csv")
        assert code == 0
        assert out.splitlines()[0] == "n,sigma2"

    def test_svg_for_tiling(self):
        code, out, _ = run("pattern tiling --cairo --extent 1 --format svg")
        assert code == 0
        assert out.startswith('<?xml version="1.0"')
        assert "<path" in out

    @pytest.mark.parametrize("fmt,built", [
        ("text", ["_verify_cover"]), ("json", ["to_placement_json"]), ("svg", ["to_svg"]),
    ])
    def test_tiling_builds_only_the_asked_format(self, monkeypatch, fmt, built):
        # only the text prints the verdict, so only the text runs the cover check
        from combanal import patterns as pa

        calls = []
        for name in ("to_svg", "to_placement_json"):
            method = getattr(pa.TilingResult, name)
            monkeypatch.setattr(
                pa.TilingResult, name,
                lambda self, _m=method, _n=name: calls.append(_n) or _m(self),
            )
        check = pa._verify_cover
        monkeypatch.setattr(pa, "_verify_cover", lambda *a: calls.append("_verify_cover") or check(*a))
        code, out, err = run(f"pattern tiling --cairo --extent 1 --format {fmt}")
        assert (code, err) == (0, "") and out
        assert calls == built

    @pytest.mark.parametrize("argv,built", [
        ("puzzle triangles 200", []),
        ("puzzle triangles 200 --squares", []),
        ("puzzle cubes --mode any-coloring --colors 50", []),
        ("puzzle triangles 5 --list", ["generate_tiles"]),
        ("puzzle triangles 5 --squares --format json", ["generate_tiles"]),
        ("puzzle cubes --mode any-coloring --colors 3 --list", ["generate_cubes"]),
        ("puzzle cubes --mode any-coloring --colors 3 --format json", ["generate_cubes"]),
        ("puzzle cubes", []),
        ("puzzle cubes --list", ["generate_cubes"]),
        ("puzzle cubes --format json", ["generate_cubes"]),
    ])
    def test_count_builds_no_tile_or_cube(self, monkeypatch, argv, built):
        # a text count reads its closed form; only a listing walks the colorings
        from combanal import recreations as rc

        calls = []
        for name in ("generate_tiles", "generate_cubes"):
            build = getattr(rc, name)
            monkeypatch.setattr(rc, name, lambda *a, _b=build, _n=name: calls.append(_n) or _b(*a))
        code, out, err = run(argv)
        assert (code, err) == (0, "") and out
        assert calls == built

    @pytest.mark.parametrize("argv,message", [
        ("puzzle cubes --colors 5", "all-distinct-faces mode needs exactly six colors"),
        ("puzzle cubes --colors 0 --format json", "need at least one color"),
    ])
    def test_cube_count_refuses_a_palette_that_is_not_six(self, argv, message):
        assert run(argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,out", [
        ("invariant weight 3 4", "6\n"),
        ("invariant weight 3 4 --format json", "6\n"),
        ("invariant weight 3 5", "infeasible\n"),
        ("invariant weight 3 5 --format json", "null\n"),
    ])
    def test_infeasible_weight_is_json_null(self, argv, out):
        assert run(argv) == (0, out, "")

    def test_out_file(self, tmp_path):
        path = tmp_path / "rod.json"
        code, out, _ = run(f"puzzle rod 8 --format json --out {path}")
        assert code == 0
        assert out == ""
        assert path.read_text() == "[0,1,3,7,12,20,30,44]\n"

    def test_simulate_emits_json(self):
        code, out, _ = run(
            "election simulate --share 0.53 --constituencies 10 --size 101 --seed 1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seats_a"] + payload["seats_b"] == 10


class TestSelectedBehaviors:
    def test_plane_boxed(self):
        code, out, _ = run("partition plane 4 --boxed inf,4,4")
        assert code == 0 and out == "13\n"

    def test_xy_polynomial_low_terms(self):
        code, out, _ = run("partition plane --xy 4")
        assert code == 0
        assert out.startswith("x^7 + 2x^8 + x^9 + 2x^10 + 3x^11")

    def test_newcomb(self):
        code, out, _ = run("compose newcomb 1,1")
        assert code == 0
        assert "1 1: 1" in out and "2: 1" in out

    def test_election_prob(self):
        code, out, _ = run("election prob 3 3 1 1")
        assert code == 0 and out == "3/5\n"

    def test_invariant_syzygant_default(self):
        code, out, _ = run("invariant syzygant --k 3")
        assert code == 0
        assert "alphas (-4,-1,1)" in out

    def test_invariant_check(self):
        code, out, _ = run(
            "invariant check a0*a4-4*a1*a3+3*a2^2 --p 4 --transform 2,1,0,3"
        )
        assert code == 0 and out == "invariant s=4\n"

    def test_mayblox_verifies(self):
        code, out, _ = run("puzzle mayblox --target 0")
        assert code == 0
        assert out.strip().endswith("verified True")

    def test_contacts_list(self):
        code, out, _ = run("puzzle contacts 3 --list")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_divisor_series_table_csv(self):
        code, out, _ = run("divisor series A --max-n 4 --max-k 2 --format csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k1,k2"
        assert lines[1] == "1,1,0"
