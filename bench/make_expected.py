"""Regenerate bench/expected.json: the expected response of every argv in
the benchmark's pools, taken from the current checkout and cross-checked
once against the library's own oracles where one exists.

    python3 bench/make_expected.py

Answers are stored as the SHA-256 and length of stdout (with the text
itself when short).  Refusals store the accepted exit codes.  Known
defects store the response the README's contract asks for, so they fail
until fixed; the script refuses to write if one of them already passes,
or if any other response breaks its expectation.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from combanal import cli, compositions, divisors, exactcore, invariants, masterthm, partitions  # noqa: E402
from run import judge  # noqa: E402
from session import answer  # noqa: E402
from workloads import KNOWN_DEFECTS, POOLS, REFUSALS  # noqa: E402


def dispatch(argv: str):
    out, err = io.StringIO(), io.StringIO()
    code = answer(cli, argv.split(), out, err)
    return code, out.getvalue(), err.getvalue()


def _option(words, flag):
    return words[words.index(flag) + 1]


def _matrix(text):
    return [[int(v) for v in row.split(",")] for row in text.split(";")]


def _plane_partitions(n: int) -> int:
    """n PL(n) = sum_k sigma_2(k) PL(n - k), from divisor sums alone."""
    table = [1]
    for m in range(1, n + 1):
        table.append(sum(divisors.sigma(k, 2) * table[m - k] for k in range(1, m + 1)) // m)
    return table[n]


def _bipartite_compositions(p: int, q: int) -> int:
    """c(v) = sum of c(v - u) over nonzero parts u <= v, c(0) = 1."""
    c = {}
    for a in range(p + 1):
        for b in range(q + 1):
            c[a, b] = 1 if (a, b) == (0, 0) else sum(
                c[a - i, b - j] for i in range(a + 1) for j in range(b + 1) if (i, j) != (0, 0)
            )
    return c[p, q]


def _exact_parts(n: int, k: int) -> int:
    """Partitions of n into exactly k parts: parts <= k of n - k."""
    m = n - k
    ways = [1] + [0] * m
    for part in range(1, k + 1):
        for i in range(part, m + 1):
            ways[i] += ways[i - part]
    return ways[m]


def oracle(argv: str):
    """(name, expected stdout) from an independent route, or None."""
    w = argv.split()
    if w[:2] == ["master", "coeff"] and "--degree" in w:
        matrix, degree = _matrix(_option(w, "--matrix")), tuple(int(v) for v in _option(w, "--degree").split(","))
        value = masterthm.redundant_coefficient(matrix, degree)
        return "redundant_coefficient", f"{value.numerator if value.denominator == 1 else value}\n"
    if w[:2] == ["master", "coeff"] and "--denominator" in w:
        matrix = _matrix(_option(w, "--matrix"))
        names = tuple(f"x{i}" for i in range(1, len(matrix) + 1))
        xs = exactcore.poly_ring(*names)
        one, zero = exactcore.MultiPoly.const(names, 1), exactcore.MultiPoly.zero(names)
        entries = [[(one if i == j else zero) - xs[i] * a for j, a in enumerate(row)] for i, row in enumerate(matrix)]
        return "poly_det_cofactor", f"{exactcore.poly_det_cofactor(entries)}\n"
    if w[:2] == ["master", "rencontres"] and w[2] == "0":
        shape = tuple(int(v) for v in w[3].split(","))
        if all(e == 1 for e in shape):
            return "brute_force_derangements", f"{masterthm.brute_force_derangements(len(shape))}\n"
        value = masterthm.redundant_coefficient(masterthm.derangement_matrix(len(shape)), shape)
        return "redundant_coefficient", f"{value}\n"
    if w[:2] == ["divisor", "sigma2"] and len(w) == 3:
        return "sigma(n, 2)", " ".join(str(divisors.sigma(n, 2)) for n in range(1, int(w[2]) + 1)) + "\n"
    if w[:2] == ["partition", "plane"] and len(w) == 3:
        n = int(w[2])
        if n <= 12:
            assert len(partitions.enumerate_plane_partitions(n)) == _plane_partitions(n)
            return "len(enumerate_plane_partitions)", f"{len(partitions.enumerate_plane_partitions(n))}\n"
        return "sigma2 recurrence", f"{_plane_partitions(n)}\n"
    if w[:2] == ["compose", "count"] and len(w) == 4:
        p, q = int(w[2]), int(w[3])
        if p + q <= 8:
            assert len(compositions.enumerate_multipartite_compositions((p, q))) == _bipartite_compositions(p, q)
        return "bipartite composition recurrence", f"{_bipartite_compositions(p, q)}\n"
    if w[:2] == ["partition", "count"] and "--parts" in w and len(w) == 5:
        return "exact-parts table", f"{_exact_parts(int(w[2]), int(_option(w, '--parts')))}\n"
    return None


def line_count_oracle(argv: str):
    """(name, expected line count) for plain enumerations."""
    w = argv.split()
    if w[:2] == ["partition", "enum"] and len(w) == 3:
        return "count_partitions", partitions.count_partitions(int(w[2]))
    if w[:2] == ["compose", "enum"] and len(w) == 3:
        return "2^(n-1)", 2 ** (int(w[2]) - 1)
    if w[:2] == ["invariant", "basis"] and len(w) == 5 and "--protomorphs" not in w:
        p, j, wt = (int(v) for v in w[2:])
        return "seminvariant_dimension", invariants.seminvariant_dimension(p, j, wt)
    return None


def main() -> int:
    argvs = list(dict.fromkeys(a for pool in POOLS.values() for a in pool))
    entries = {}
    problems = []
    checked = 0
    for argv in argvs:
        code, out, err = dispatch(argv)
        defect = KNOWN_DEFECTS.get(argv)
        if defect:
            entry = {"refuse": defect["refuse"], "defect": defect["defect"]}
        elif argv in REFUSALS:
            entry = {"refuse": REFUSALS[argv]}
        else:
            entry = {}
        found = oracle(argv) if code == 0 or (defect and "answer" in defect) else None
        if found:
            name, text = found
            if code == 0 and text != out:
                problems.append(f"{argv}: stdout {out[:60]!r} disagrees with {name} {text[:60]!r}")
            entry["oracle"] = name
            checked += 1
        if code == 0 and not defect:
            counted = line_count_oracle(argv)
            if counted:
                lines = 0 if out == "(empty)\n" else len(out.splitlines())
                if lines != counted[1]:
                    problems.append(f"{argv}: {lines} lines, {counted[0]} says {counted[1]}")
                entry["oracle"] = counted[0]
                checked += 1
            text = out
        elif defect and found:
            text = found[1]
        else:
            text = None
        if text is not None:
            data = text.encode()
            entry.update(sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
            if len(data) <= 120:
                entry["stdout"] = text
        reply = [code, 0, hashlib.sha256(out.encode()).hexdigest(), len(out.encode()), err]
        if judge(entry, reply) == bool(defect):
            problems.append(f"{argv}: exit {code}, stderr {err[-80:]!r} "
                            f"{'already honours' if defect else 'breaks'} its expectation")
        entries[argv] = entry
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    (BENCH / "expected.json").write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} expected responses, {checked} checked against an oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
