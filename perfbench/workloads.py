"""Inputs, calls and reference values of the three workloads.

The package is reached only through its public names (the `seifertlinks`
namespace and `python -m seifertlinks`).  Calls go through the package
attribute at call time, so a traced run sees the wrappers that
`harness.Tracer.patch` installs.

Every reference value is one that does not depend on how the package
represents a polynomial or an orbifold: genus, determinant, breadth,
Phi_n-divisibility, verdicts with the evidence class, chi as an exact
fraction, and (for grid links only) the text of Delta.
"""

from __future__ import annotations

import gzip
import importlib.util
import json
import math
import os
import sys
from itertools import product
from random import Random

from harness import digest, kind_blocks, strata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")
WORKLOADS = ("cli_oneshot", "grid_sweep", "large_params")

# The pools are fixed, so references can be recorded once for every
# input a seed may draw; the run seed only picks order and subsample.
POOL_SEED = 20240229


def load_package():
    """Import `seifertlinks` from the checkout's `src` (it is not
    installed); fail clearly when the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "seifertlinks", "__init__.py")):
        raise FileNotFoundError(f"no package sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import seifertlinks

    return seifertlinks


def load_oracles():
    """The independent oracles of the test suite, loaded by path so that
    the tests directory need not be importable as a package."""
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_refs(name):
    with gzip.open(os.path.join(REFS, f"{name}.json.gz"), "rt") as handle:
        return json.load(handle)


def save_refs(name, data):
    os.makedirs(REFS, exist_ok=True)
    # mtime=0 keeps the file byte-identical when re-recorded unchanged.
    with open(os.path.join(REFS, f"{name}.json.gz"), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(json.dumps(data, sort_keys=True, separators=(",", ":")).encode())


# -- the canonical grid of the acceptance suite ---------------------------------


def canonical_grid(api, max_pq=7, max_k=6):
    """The deduplicated canonical links of `tests/conftest.py`
    (`canonical_grid`), rebuilt here so the benchmark's inputs do not
    change when the test fixtures do.  1,636 links, 1,628 of them prime."""
    seen = {}
    for p, q in product(range(1, max_pq + 1), repeat=2):
        if math.gcd(p, q) != 1:
            continue
        for k in range(1, max_k + 1):
            for w in range(k % 2, k + 1, 2):
                candidates = [api.ZeroCore(p, q, k, w)]
                candidates += [api.OneCore(p, q, k, w, s) for s in (1, -1)]
                if min(p, q) >= 2:
                    candidates += [
                        api.TwoCore(p, q, k, w, s1, s2)
                        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                    ]
                for raw in candidates:
                    if isinstance(raw, api.ZeroCore) and k == 1 and min(p, q) == 1:
                        continue
                    try:
                        seen[api.normalize(raw)] = True
                    except api.UnknotInput:
                        continue
    for plus in range(4):
        for minus in range(4):
            if plus + minus >= 1:
                seen[api.normalize(api.HopfSum(plus, minus))] = True
    return list(seen)


# -- reference values ------------------------------------------------------------

REPORT_FIELDS = (
    "is_prime", "is_fibred", "in_P", "is_braid_positive", "is_sqp",
    "is_genus_zero", "g4_equals_g", "genus", "g4", "is_definite", "dynkin",
    "ade_up_to_orientation",
)


def report_value(report):
    return digest("|".join(f"{f}={getattr(report, f)!s}" for f in REPORT_FIELDS))


def breadth_value(poly):
    return None if poly.is_zero else poly.breadth


def star_value(status):
    return f"{status.verdict}/{type(status.evidence).__name__}"


def psi_value(outcome):
    evidence = getattr(outcome, "evidence", None)
    return f"{type(outcome).__name__}/{type(evidence).__name__}"


def group_value(group):
    return "-" if group is None else group.label


# op -> (call, reference value).  `n` is ignored by the ops without an index.
OPS = {
    "report": (lambda api, link, n: api.classification_report(link), report_value),
    "delta": (lambda api, link, n: api.delta(link), lambda p: [digest(str(p)), breadth_value(p)]),
    "genus": (lambda api, link, n: api.genus(link), int),
    "determinant": (lambda api, link, n: api.determinant(link), int),
    "cdiv": (lambda api, link, n: api.cyclotomic_divides(n, link), lambda b: "1" if b else "0"),
    "chi": (lambda api, link, n: api.b_bar(link, n).chi, str),
    "fg": (lambda api, link, n: api.finite_group(link, n), group_value),
    "star": (lambda api, link, n: api.canonical_star_status(link, n), star_value),
    "psi": (lambda api, link, n: api.general_psi_lo(link, api.canonical_weights(link, n)), psi_value),
}
# Large links are checked by breadth only: their Delta text is not a
# quantity a representation change must preserve.
LARGE_DELTA = (OPS["delta"][0], breadth_value)


def call(api, op, link, n, ops=OPS):
    return ops[op][0](api, link, n)


def value_of(op, result, ops=OPS):
    return ops[op][1](result)


# -- grid_sweep --------------------------------------------------------------------

# Index ranges of the acceptance suite, per op.
GRID_RANGES = {
    "cdiv": range(2, 13),
    "chi": range(2, 61),
    "fg": range(2, 13),
    "star": range(2, 13),
    "psi": range(2, 8),
}


def grid_queries(api, grid):
    """One query per link: the acceptance suite's calls on it, as
    (op, n) pairs.  A query is a whole link rather than one call because
    single calls range from microseconds to milliseconds by op, which
    would put the latency percentiles on the boundary between two ops."""
    out = []
    for index, link in enumerate(grid):
        prime = api.is_prime(link)
        core = not isinstance(link, api.HopfSum)
        calls = [(op, 0) for op in ("report", "delta", "genus", "determinant")]
        for op, indices in GRID_RANGES.items():
            if op != "cdiv" and not prime:
                continue
            if op == "psi" and not core:
                continue
            calls.extend((op, n) for n in indices)
        out.append((index, tuple(calls)))
    return out


def grid_stream(queries, rng):
    """Passes over all links, each in a fresh seeded order.  Yields one
    query per batch."""
    while True:
        order = list(queries)
        rng.shuffle(order)
        for query in order:
            yield [query]


def grid_ref(refs, key, op, n):
    entry = refs[key][op]
    if op in GRID_RANGES:
        entry = entry[n - GRID_RANGES[op].start]
    return entry


# -- large_params ----------------------------------------------------------------

LARGE_OPS = ("report", "delta", "genus", "determinant")
LARGE_PQ = range(11, 44)
# n = 60p for primes p, 840 <= n <= 15120: any two share only the
# divisors of 60, so the cyclotomic cache cannot make a query cheaper by
# the order in which earlier queries warmed it.
STAR_NS = tuple(60 * p for p in range(14, 253) if all(p % d for d in range(2, p)))
# Known to exceed any reasonable budget at this code (each runs for
# seconds before it fails); one starts every batch, in turn, in a capped
# child with a deadline.
PATHOLOGICAL = (
    ("star", "T(2,5)", 55440),
    ("genus", "L(101,103;3,3)", 0),
    ("star", "T(2,5)", 720720),
    ("determinant", "L(99999999999,2;1,1)", 0),
)
CLASSIFY_STRATA = 8
ROUNDS_PER_BATCH = 2  # a batch: this many links per stratum, one star n, one pathological input


def expected_pathological(op, notation, n):
    """Answers known in closed form, used until references can be recorded:
    T(2,5) has left-orderable canonical covers for every n > 3; the genus
    of L(p,q;k,k) is (breadth - k + 1) / 2 with breadth 1 + k(kpq - p - q);
    det T(2,q) = q for odd q."""
    if op == "star":
        return lambda value: value.split("/")[0] == "Star"
    if notation == "L(101,103;3,3)":
        genus = (large_breadth(101, 103, 3) - 3 + 1) // 2
        return lambda value: value == genus
    return lambda value: value == 99999999999


def large_breadth(p, q, k):
    return 1 + k * (k * p * q - p - q)


def torus_terms(p, q):
    """Number of nonzero terms of the Alexander polynomial of the torus
    knot T(p,q), from the semigroup S generated by p and q: the polynomial
    is (1 - t) times the sum of t^s over s in S, so a term sits wherever
    membership in S changes below the conductor (p-1)(q-1)."""
    conductor = (p - 1) * (q - 1)
    member = bytearray(conductor + 1)
    for b in range(conductor // q + 1):
        member[b * q :: p] = b"\x01" * len(range(b * q, conductor + 1, p))
    return 1 + sum(x != y for x, y in zip(member, member[1:]))


def large_cost_key(entry):
    """Estimated cost of Delta for L(p,q;k,k) when polynomials are
    expanded: proportional to the terms of the torus knot factor for
    k = 1 (one exact division), times pq for k >= 2 (a product with a
    dense factor of pq terms).  Only used to give each op an equal share
    of every cost range; the strata are cut from measured costs."""
    p, q, k = entry
    terms = torus_terms(p, q)
    return terms * p * q / 30 if k > 1 else terms


def large_pool():
    """(p, q, k) for L(p,q;k,k), cheapest first by the estimate."""
    pool = [
        (p, q, k)
        for p in LARGE_PQ
        for q in LARGE_PQ
        if p < q and math.gcd(p, q) == 1
        for k in (1, 2, 3)
    ]
    return sorted(pool, key=large_cost_key)


def large_ops():
    """The op of each (p, q, k), fixed by its place in the estimated cost
    order."""
    return {entry: LARGE_OPS[i % len(LARGE_OPS)] for i, entry in enumerate(large_pool())}


def star_pool():
    """Distinct n for each query, alternating the two links, smallest n
    first."""
    return [("T(2,5)" if i % 2 == 0 else "T(2,3)", n) for i, n in enumerate(STAR_NS)]


def large_key(p, q, k):
    return f"L({p},{q};{k},{k})"


def large_stream(rng):
    """Batches of queries ("op", notation, n).  A batch takes
    ROUNDS_PER_BATCH links from each cost stratum and the next star n, in
    seeded order, so every run measures nearly the same mix whatever the
    seed.  The strata are cut from the cost of each query as recorded in
    `refs/large_cost.json.gz`: the estimate orders Delta's cost only
    roughly, and a stratum that spans a wide range of costs lets the seed
    move the latency percentiles.  Each batch starts with
    the next pathological input, so a run of whole batches fails the same
    share of its queries however many batches it holds.  The stream ends
    when a stratum or the star n run out, so no input repeats in a
    process and every batch is whole."""
    ops = large_ops()
    cost_ms = load_refs("large_cost")
    pool = sorted(ops, key=lambda entry: (cost_ms[large_key(*entry)], entry))
    (stars,) = strata(star_pool(), 1, rng)
    rounds = list(zip(*strata(pool, CLASSIFY_STRATA, rng)))
    count = min(len(stars), len(rounds) // ROUNDS_PER_BATCH)
    for index in range(count):
        taken = rounds[index * ROUNDS_PER_BATCH : (index + 1) * ROUNDS_PER_BATCH]
        batch = [(ops[e], large_key(*e), 0) for entries in taken for e in entries]
        batch.append(("star",) + stars[index])
        rng.shuffle(batch)
        batch.insert(0, ("deadline",) + PATHOLOGICAL[index % len(PATHOLOGICAL)])
        yield batch


def large_link(api, notation):
    if notation.startswith("T("):
        return api.alias_to_link(notation)
    p, q, k, w = (int(x) for x in notation[2:-1].replace(";", ",").split(","))
    return api.ZeroCore(p, q, k, w)


LARGE_TABLE = dict(OPS, delta=LARGE_DELTA)


# -- cli_oneshot -------------------------------------------------------------------

# 20 slots per block; a repeat gives a kind its share.
CLI_PATTERN = (
    ["classify"] * 6 + ["cover"] * 5 + ["cover_weights"] * 3
    + ["table"] * 2 + ["rejected"] * 3 + ["malformed_weights"]
)
MALFORMED_WEIGHTS = ("a", "1,,2", "", "1.5", "x,y", "one")


def _notation(api, link, rng):
    found = api.alias(link)
    if found is not None and rng.random() < 0.5:
        return found.name
    return api.render(link)


def cli_pool(api, grid):
    """Fixed pool of CLI argument vectors per query kind."""
    rng = Random(POOL_SEED)
    prime = [link for link in grid if api.is_prime(link)]
    core = [link for link in prime if not isinstance(link, api.HopfSum)]
    fmt = lambda: ["--json"] if rng.random() < 1 / 3 else []
    pool = {kind: [] for kind in CLI_PATTERN}
    for link in grid:
        names = [api.render(link)]
        found = api.alias(link)
        if found is not None:
            names.append(found.name)
        for name in names:
            pool["classify"].append(["classify", name] + fmt())
    for _ in range(1500):
        link, n = rng.choice(prime), rng.randrange(2, 13)
        pool["cover"].append(["cover", _notation(api, link, rng), "--n", str(n)] + fmt())
    for _ in range(1000):
        link, n = rng.choice(core), rng.randrange(2, 13)
        weights = ",".join(str(rng.randrange(1, n)) for _ in range(api.components(link)))
        pool["cover_weights"].append(
            ["cover", _notation(api, link, rng), "--n", str(n), "--weights", weights] + fmt()
        )
    for name in api.TABLE_NAMES:
        pool["table"] += [["table", name], ["table", name, "--json"]]
    rejected = pool["rejected"]
    for text in ("L(2,3;1", "X(1,2)", "", "L(a,b;1,1)", "L(2,3;1,2)", "L(2,3;3,1;+,+,+)",
                 "P(-2,3,7)", "T(2,3", "#", "L(1,2;1,1)", "T(1,5)", "L(1,1;1,1)"):
        rejected.append(["classify", text])
    for p, q in ((2, 4), (3, 6), (4, 6), (6, 9), (5, 10), (7, 14)):
        rejected.append(["classify", f"L({p},{q};1,1)"])
        rejected.append(["cover", f"L({p},{q};1,1)", "--n", "3"])
    for plus, minus in ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1)):
        text = " # ".join(f"{c} H{s}" for c, s in ((plus, "+"), (minus, "-")) if c)
        rejected.append(["cover", "#" + text, "--n", str(rng.randrange(2, 13))])
    for link in rng.sample(core, 12):
        n = rng.randrange(3, 13)
        count = api.components(link)
        rejected.append(["cover", api.render(link), "--n", str(n), "--weights", ",".join(["1"] * (count + 1))])
        rejected.append(["cover", api.render(link), "--n", str(n), "--weights", ",".join([str(n)] * count)])
    for bad_n in ("1", "0", "abc"):
        rejected.append(["cover", "T(2,3)", "--n", bad_n])
    rejected.append(["table", "nope"])
    for link in rng.sample(core, 8):
        for bad in MALFORMED_WEIGHTS:
            pool["malformed_weights"].append(
                ["cover", api.render(link), "--n", str(rng.randrange(2, 13)), "--weights", bad]
            )
    return pool


def cli_stream(pool, rng):
    """Blocks of (kind, argv): each block holds every kind at its share in
    seeded order, and each kind cycles through its own seeded order of
    the pool."""
    def cycle(items):
        while True:
            order = list(items)
            rng.shuffle(order)
            yield from order

    sources = {kind: cycle(items) for kind, items in pool.items()}
    for block in kind_blocks(CLI_PATTERN, rng):
        yield [(kind, next(sources[kind])) for kind in block]


def cli_key(argv):
    return json.dumps(argv)


# -- independent oracles -------------------------------------------------------------

TORUS_PAIRS = (
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 8), (2, 9), (3, 3), (3, 4), (3, 5),
    (3, 6), (4, 4), (4, 5), (4, 6), (5, 6),
)


def oracle_cases():
    cases = [("torus", a, b) for a, b in TORUS_PAIRS]
    cases += [("pretzel", q, 0) for q in range(2, 9)]
    cases += [("ade", "A", m) for m in range(1, 13)]
    cases += [("ade", "D", m) for m in range(4, 13)]
    cases += [("ade", "E", m) for m in (6, 7, 8)]
    return cases


def _terms_facts(terms):
    if not terms:
        return None, 0
    return terms[-1][0] - terms[0][0], abs(sum(c * (-1) ** e for e, c in terms))


def check_oracle(api, oracles, case):
    """Breadth and determinant from the package against the oracle (and
    component count for braid closures).  Returns mismatch texts."""
    kind, a, b = case
    if kind == "ade":
        link = api.ade_link(api.DynkinType(a, b))
        tree = oracles.dynkin_seifert(a, b)
        terms = oracles.alexander_terms(tree)
        components = None
        det = oracles.symmetrized_det(tree)
    else:
        if kind == "torus":
            link = api.alias_to_link(f"T({a},{b})")
            strands, word = oracles.torus_word(a, b)
        else:
            link = api.alias_to_link(f"P(-2,2,{a})")
            strands, word = oracles.pretzel_two_two_q_word(a)
        terms = oracles.braid_closure_alexander(strands, word)
        components = oracles.braid_components(strands, word)
        det = None
    breadth, det_from_terms = _terms_facts(terms)
    got = {
        "breadth": breadth_value(api.delta(link)),
        "determinant": api.determinant(link),
    }
    want = {"breadth": breadth, "determinant": det if det is not None else det_from_terms}
    if components is not None:
        got["components"] = api.components(link)
        want["components"] = components
    return [f"oracle {case} {k}: package {got[k]} != oracle {want[k]}" for k in got if got[k] != want[k]]
