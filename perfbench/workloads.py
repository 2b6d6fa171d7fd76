"""Benchmark inputs and their hand-written expected verdicts.

Every input is a structure file plus the command line that analyses it.  The
expected lines were derived by hand from the structure's definition (or taken
from the acceptance tests and the paper's stated examples), never recorded
from a run of the program:

* Mizohata type {nu, n - nu}: Levi inertia (nu, n - nu, 0) in ds1; phi_t has
  full generic rank d = 1, so there are no kernel vectors.
* crossing powers (k, l), phi = (t^(l+1)/(l+1), t^(k+1)/(k+1)): the recipe
  kernel vector is (-t^k, t^l), its j-th t-derivative at 0 is -k! e1 at j = k
  and l! e2 at j = l, so the span dimensions are 0 / 1 / 2 with
  nondegeneracy order l; the first degeneracy minor is
  det(b, b') = (k - l) t^(k+l-1).
* monomial structures with mu = 1, phi_j = t^(a_j): the same argument gives
  order (second smallest a_j) - 1 and, for d = 2, the minor
  a1 a2 (a2 - a1) t^(a1+a2-3).
* S2 family, phi_k = s1 t^2 + t^(k+1): every kernel component vanishes at
  t = 0, the first t-derivatives reach e_2..e_d, and the second derivative of
  the kernel vector (-phi_2,t, phi_1,t, 0, ...) reaches e_1, so the dimensions are
  0 / d-1 / d and the order is 2 at every k_max >= 2.
* candidates: X is an automorphism iff X(F) is annihilated by the frame for
  every first integral F, e.g. X(W) = 2W for 2s d/ds + t d/dt on the
  Mizohata structure.

Inputs marked ``core`` have a shape that does not depend on the seed (the
seed may change coefficients and sampled data only), so the per-layer counts
summed over them repeat exactly across seeds."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

KMAX = 8  # the catalog and numeric workloads run at the default depth


@dataclass
class Input:
    name: str
    text: str  # structure file contents
    command: str  # analyze | autosys | approx | wavefront
    options: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # callables lines -> error or None
    core: bool = True
    cap_s: float | None = None  # run once per run under this wall cap, not timed

    def argv(self, path):
        return [self.command, str(path), *self.options]


# -- checks --------------------------------------------------------------------


def line(text):
    def check(lines):
        return None if text in lines else f"missing line {text!r}"

    return check


def prefix(*texts):
    def check(lines):
        if any(l.startswith(t) for l in lines for t in texts):
            return None
        return f"no line starts with any of {texts!r}"

    return check


def hull_dims(dims):
    expect = [f"  {k}: {d}" for k, d in enumerate(dims)]

    def check(lines):
        try:
            at = lines.index("hull chain (level: span dimension at 0):")
        except ValueError:
            return "missing hull chain block"
        got = lines[at + 1 : at + 1 + len(expect)]
        return None if got == expect else f"hull dims {got!r} != {expect!r}"

    return check


def _direction(lines, i):
    head = f"  direction {i} ("
    for l in lines:
        if l.startswith(head):
            slope = float(l.split("slope ", 1)[1].split(" ", 1)[0])
            return slope, l.rsplit("-> ", 1)[1]
    return None


def direction_label(i, label):
    def check(lines):
        got = _direction(lines, i)
        if got is None:
            return f"missing direction {i}"
        return None if got[1] == label else f"direction {i} is {got[1]}, expected {label}"

    return check


def steeper(i, j, by):
    """Direction i decays at least ``by`` orders faster than direction j."""

    def check(lines):
        a, b = _direction(lines, i), _direction(lines, j)
        if a is None or b is None:
            return f"missing direction {i} or {j}"
        return None if a[0] <= b[0] - by else f"slope {a[0]} not below {b[0]} - {by}"

    return check


def approx_sups(positive):
    def check(lines):
        sups = [float(l.rsplit(": ", 1)[1]) for l in lines if l.startswith("sup |D1 u| at s = ")]
        if len(sups) != 7:
            return f"expected 7 sup lines, got {len(sups)}"
        ok = all(v > 0 for v in sups) if positive else all(v == 0 for v in sups)
        return None if ok else f"sup values {sups} are not all {'> 0' if positive else '== 0'}"

    return check


def approx_radii(order):
    def check(lines):
        got = [l.split(" = ", 1)[0] for l in lines if l.startswith("R_")]
        expect = [f"R_{k}" for k in range(order + 1)]
        return None if got == expect else f"cutoff radii {got} != {expect}"

    return check


# -- formatting helpers for expected witness minors ----------------------------


def mono(c, var, e):
    """``c * var^e`` as the report prints it."""
    m = var if e == 1 else f"{var}^{e}"
    if c == 1:
        return m
    if c == -1:
        return f"-{m}"
    return f"{c}*{m}"


LOCUS_FORMS = ("Yes (", "NotEstablished (")
NO_GENERATORS = "NotEstablished (not enough hull generators for a full minor)"


def locus_checks(exceptional, degeneracy):
    out = []
    for name, verdict in (("exceptional", exceptional), ("degeneracy", degeneracy)):
        if verdict is None:
            out.append(prefix(*(f"{name} locus: {f}" for f in LOCUS_FORMS)))
        elif verdict.endswith("("):
            out.append(prefix(f"{name} locus: {verdict}"))
        else:
            out.append(line(f"{name} locus: {verdict}"))
    return out


def order_line(order, k_max=KMAX):
    if order is None:
        return line(f"nondegeneracy order: undetermined at k_max = {k_max}")
    return line(f"nondegeneracy order: {order}")


def staircase(steps, k_max=KMAX):
    """dims[k] for k = 0..k_max from (first level, dimension) steps."""
    dims = []
    for k in range(k_max + 1):
        dims.append(max([d for level, d in steps if level <= k], default=0))
    return dims


# -- structure files ---------------------------------------------------------------


def _file(nu, d, mu, phis, extra=""):
    body = f"[dims]\nnu = {nu} d = {d} mu = {mu}\n"
    if phis:
        body += "[phi]\n" + "\n".join(phis) + "\n"
    return body + extra


def _catalog_text(sdef):
    from involucalc.cli import StructureFile, serialize_structure

    return serialize_structure(StructureFile(sdef))


def mizohata_input(nu, n):
    from involucalc.catalog import standard_mizohata

    if n == 1:
        exceptional = f"Yes (rows (1,), minor {'t1' if nu else '-t1'})"
    else:
        exceptional = "NotEstablished (phi_t has fewer rows than columns; no full minors)"
    return Input(
        f"mizohata-{nu}-{n}",
        _catalog_text(standard_mizohata(nu, n)),
        "analyze",
        ["--covector", "s1=1"],
        [
            line("characteristic dimension at 0: 1"),
            line(f"levi inertia at 0 in <s1=1>: (n+, n-, n0) = ({nu}, {n - nu}, 0)"),
            prefix("kernel vectors: none"),
            hull_dims([0] * (KMAX + 1)),
            order_line(None),
            *locus_checks(exceptional, NO_GENERATORS),
        ],
    )


def crossing_input(k, l, core=True):
    from involucalc.catalog import crossing_powers

    return Input(
        f"crossing-{k}-{l}",
        _catalog_text(crossing_powers(k, l)),
        "analyze",
        checks=[
            line("characteristic dimension at 0: 2"),
            line("kernel vectors: 2"),
            hull_dims(staircase([(k, 1), (l, 2)])),
            order_line(l),
            line("kernel chain reaches dimension 2 of 2"),
            *locus_checks(
                f"Yes (rows (1,), minor {mono(1, 't1', l)})",
                f"Yes (rows (((), 0), ((0,), 0)), minor {mono(k - l, 't1', k + l - 1)})",
            ),
        ],
        core=core,
    )


def monomial_t_input(exps, core=True):
    """monomial_structure over a single t: phi_j = t^(a_j), d >= 2 distinct a_j >= 2."""
    from involucalc.catalog import monomial_structure

    d = len(exps)
    low, second = sorted(exps)[:2]
    a1 = exps[0]
    checks = [
        line(f"characteristic dimension at 0: {d}"),
        line(f"exceptional locus: Yes (rows (1,), minor {mono(a1, 't1', a1 - 1)})"),
        line(f"kernel vectors: {d * (d - 1)}"),
        hull_dims(staircase([(low - 1, d - 1), (second - 1, d)])),
        order_line(second - 1),
        line(f"kernel chain reaches dimension {d} of {d}"),
    ]
    if d == 2:
        a2 = exps[1]
        c = a1 * a2 * (a2 - a1)
        checks.append(
            line(f"degeneracy locus: Yes (rows (((), 0), ((0,), 0)), minor {mono(c, 't1', a1 + a2 - 3)})")
        )
    else:
        # the witness minor is a nonzero polynomial in t alone, hence t^m * unit
        checks.append(prefix("degeneracy locus: Yes ("))
    return Input(
        "monomial-" + "-".join(map(str, exps)),
        _catalog_text(monomial_structure([(a,) for a in exps])),
        "analyze",
        checks=checks,
        core=core,
    )


def quadrics_input(name, sdef):
    # b = (2 t2^2, -4 t1 t2, 2 t1^2); its t1-, t1t1-derivatives give an upper
    # triangular witness with determinant 2 t2^2 * (-4 t2) * 4
    return Input(
        name,
        _catalog_text(sdef),
        "analyze",
        checks=[
            line("characteristic dimension at 0: 3"),
            line("kernel vectors: 3"),
            hull_dims(staircase([(2, 3)])),
            order_line(2),
            line("kernel chain reaches dimension 3 of 3"),
            *locus_checks(
                "Yes (rows (1, 2), minor 2*t1^2)",
                "Yes (rows (((), 0), ((0,), 0), ((0, 0), 0)), minor -32*t2^3)",
            ),
        ],
    )


def catalog_inputs(seed):
    from involucalc import catalog

    rng = random.Random(f"catalog:{seed}")
    inputs = [mizohata_input(nu, n) for n in (1, 2, 3) for nu in range(n + 1)]
    inputs += [crossing_input(1, 2), crossing_input(2, 3)]
    inputs.append(quadrics_input("three-quadrics", catalog.three_quadrics()))
    inputs.append(quadrics_input("monomial-quadrics", catalog.monomial_structure([(2, 0), (1, 1), (0, 2)])))
    # every component carries the factor z = x + iy, which no frame field removes
    inputs.append(
        Input(
            "disk-weighted-1-2",
            _catalog_text(catalog.disk_weighted_powers(1, 2)),
            "analyze",
            checks=[
                line("characteristic dimension at 0: 2"),
                line("kernel vectors: 2"),
                hull_dims([0] * (KMAX + 1)),
                order_line(None),
                line("kernel chain reaches dimension 0 of 2"),
                *locus_checks(
                    "NotEstablished (no full minor of phi_t factored)",
                    "NotEstablished (no full minor of the hull generators factored)",
                ),
            ],
        )
    )
    # the witness kernel of the acceptance suite: order 5
    inputs.append(
        Input(
            "disk-weighted-user-kernel",
            _file(1, 2, 1, ["t1^2/2*(x1^2+y1^2)", "t1^3/3*(x1^2+y1^2)"], "[kernel]\nt1^2, -t1\n"),
            "analyze",
            checks=[
                line("kernel vectors: 1"),
                order_line(5),
                *locus_checks("NotEstablished (no full minor of phi_t factored)", None),
            ],
        )
    )
    inputs.append(
        Input(
            "flat-1-1",
            _catalog_text(catalog.flat_structure(1, 1)),
            "analyze",
            ["--covector", "s1=1"],
            [
                line("levi inertia at 0 in <s1=1>: (n+, n-, n0) = (0, 0, 1)"),
                line("kernel vectors: 1"),
                hull_dims([1] * (KMAX + 1)),
                order_line(0),
                *locus_checks(
                    "NotEstablished (no full minor of phi_t factored)",
                    "Yes (rows (((), 0),), minor 1)",
                ),
            ],
        )
    )
    inputs.append(
        Input(
            "complex-1",
            _catalog_text(catalog.complex_structure(1)),
            "analyze",
            checks=[
                line("characteristic dimension at 0: 0"),
                prefix("kernel vectors: none"),
                order_line(None),
                line("kernel chain reaches dimension 0 of 0"),
                *locus_checks("Yes (trivial)", NO_GENERATORS),
            ],
        )
    )
    # theta = (-2i zbar, 1); L_zbar theta = (-2i, 0); the minor is 2i
    inputs.append(
        Input(
            "disk-times-line",
            _catalog_text(catalog.disk_times_line()),
            "analyze",
            checks=[
                line("characteristic dimension at 0: 1"),
                line("kernel vectors: 1"),
                hull_dims(staircase([(0, 1), (1, 2)])),
                order_line(1),
                *locus_checks(
                    "NotEstablished (no full minor of phi_t factored)",
                    "Yes (rows (((), 0), ((0,), 0)), minor 2*i)",
                ),
            ],
        )
    )
    inputs += candidate_inputs() + bundle_inputs()
    k, l = rng.choice(list(combinations(range(1, 7), 2)))
    inputs.append(crossing_input(k, l, core=False))
    inputs.append(monomial_t_input(rng.sample(range(2, 7), 2), core=False))
    inputs.append(monomial_t_input(rng.sample(range(2, 7), 3), core=False))
    return inputs


def candidate_inputs():
    crossing = _file(
        0, 2, 1, ["t1^3/3", "t1^2/2"],
        "[kernel]\nt1, -t1^2\n"
        "[candidate]\ns1 = 3*s1\ns2 = 2*s2\nt1 = t1\n"  # X(W_j) = (l+1) W_j
        "[candidate]\nt1 = 1\n",  # X(W_1) = i t^2 is not annihilated
    )
    mizohata = _file(
        0, 1, 1, ["t1^2/2"],
        "[candidate]\ns1 = 2*s1\nt1 = t1\n"  # X(W) = 2W
        "[candidate]\ns1 = t1\n"  # X(W) = t, L t = 1
        "[candidate]\n",  # the zero field
    )
    disk = _file(
        1, 1, 1, ["x1^2 + y1^2"],
        "[candidate]\nt1 = 1\n"  # t is inert
        "[candidate]\nx1 = 1\n"  # X(W) = 2ix, L_zbar(2ix) = i
        "[candidate]\nx1 = -y1\ny1 = x1\n",  # rotation: X(Z) = iZ, X(W) = 0
    )
    return [
        Input(
            "candidates-crossing",
            crossing,
            "autosys",
            checks=[
                order_line(2),
                line("automorphism system: 2 equations in 3 unknowns"),
                line("candidate 1: Automorphism"),
                prefix("candidate 2: Not ("),
            ],
        ),
        Input(
            "candidates-mizohata",
            mizohata,
            "analyze",
            checks=[
                line("automorphism system: 1 equations in 2 unknowns"),
                line("candidate 1: Automorphism"),
                prefix("candidate 2: Not ("),
                line("candidate 3: Automorphism"),
            ],
        ),
        Input(
            "candidates-disk-times-line",
            disk,
            "autosys",
            checks=[
                line("automorphism system: 4 equations in 4 unknowns"),
                line("candidate 1: Automorphism"),
                prefix("candidate 2: Not ("),
                line("candidate 3: Automorphism"),
            ],
        ),
    ]


def bundle_inputs():
    return [
        # trivial line bundle over the Mizohata frame L = d/dt - i t d/ds:
        # sections and frames built from W = s + i t^2/2 are solutions
        Input(
            "bundle-trivial",
            _file(
                0, 1, 1, ["t1^2/2"],
                "[bundle]\nrank = 1\nsection = s1 + i*t1^2/2\nsection = t1\n"
                "lambda 1 1 = 1 + s1 + i*t1^2/2\n",
            ),
            "analyze",
            checks=[
                line("bundle: Flat"),
                line("bundle section 1: Solution"),
                line("bundle section 2: Not a solution"),
                line("integrating frame: Integrating"),
            ],
        ),
        # [L1, L2] = 0 on type {1,1}, so flatness needs L1 D2 = L2 D1; L2 t2 = 1
        Input(
            "bundle-curved",
            _file(0, 1, 2, ["t1^2/2 - t2^2/2"], "[bundle]\nrank = 1\nD 1 1 1 = t2\nlambda 1 1 = 1 + t1\n"),
            "analyze",
            checks=[
                line("bundle: NotFlat (first failure at fields (1,2) entry (1,1))"),
                line("integrating frame: Not"),
            ],
        ),
        # rank 2 with D[1][2] = 1: solutions satisfy L eta1 = 0, L eta2 = -eta1
        Input(
            "bundle-rank2",
            _file(0, 1, 1, ["t1^2/2"], "[bundle]\nrank = 2\nD 1 1 2 = 1\nsection = 1, -t1\nsection = 1, t1\n"),
            "analyze",
            checks=[
                line("bundle: Flat"),
                line("bundle section 1: Solution"),
                line("bundle section 2: Not a solution"),
            ],
        ),
    ]


# -- exact stress --------------------------------------------------------------


def s2_text(d):
    return _file(0, d, 1, [f"s1*t1^2 + t1^{k + 1}" for k in range(1, d + 1)])


S1_TEXT = _file(
    1, 3, 2,
    ["t1^3/3 + x1^2*t2^2 + s1*t1^2", "t1^2*t2 + y1^2*t1^2", "t2^4 + x1*y1*t1*t2 + s2^2"],
)


def s2_input(d, k_max, cap_s=None):
    return Input(
        f"s2-d{d}-k{k_max}",
        s2_text(d),
        "analyze",
        ["--kmax", str(k_max)],
        [
            line(f"characteristic dimension at 0: {d}"),
            line(f"kernel vectors: {d * (d - 1)}"),
            hull_dims(staircase([(1, d - 1), (2, d)], k_max)),
            order_line(2),
            line(f"kernel chain reaches dimension {d} of {d}"),
            *locus_checks("Yes (rows (1,), minor 2*t1+2*s1*t1)", None),
        ],
        cap_s=cap_s,
    )


STRESS_CAP_S = 3.0
ONCE_CAP_S = 60.0


def exact_stress_inputs(seed):
    # Fixed inputs only: a seeded small structure among these would move the
    # per-input times by more than the run-to-run noise.  The seed is unused.
    # The k_max 4 members take 1-3 s each, too long for enough timed trials
    # on a noisy host, so they run once per run and are checked like the rest.
    del seed
    inputs = [s2_input(2, 3), s2_input(3, 3), s2_input(4, 3), s2_input(5, 3)]
    inputs += [s2_input(4, 4, cap_s=ONCE_CAP_S), s2_input(5, 4, cap_s=ONCE_CAP_S)]
    inputs.append(
        Input(
            "s1-k4",
            S1_TEXT,
            "analyze",
            ["--kmax", "4"],
            [line("characteristic dimension at 0: 3"), prefix("nondegeneracy order: "), *locus_checks(None, None)],
            cap_s=STRESS_CAP_S,
        )
    )
    inputs.append(s2_input(5, 8, cap_s=STRESS_CAP_S))
    return inputs


# -- numeric -------------------------------------------------------------------


FBI = "[fbi]\ndata = {data}\n{param}kappa = 1\ngrid = 256\ndirs = 8\nradii = 6/5:120:7\n"


def _nonzero_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _coef(c):
    return f"({c})"


def numeric_inputs(seed):
    rng = random.Random(f"numeric:{seed}")
    sigma = Fraction(rng.randint(12, 18), 100)
    delta = Fraction(1, rng.randint(40, 64))
    a, c, e = (_nonzero_rational(rng) for _ in range(3))
    mizohata = ["t1^2/2"]
    # 1/(x + i delta) = -i int_0^inf exp(i x eta - delta eta) d eta has
    # spectrum in +x only: +x decays like exp(-delta lambda), -x is flat-free
    boundary_checks = [
        line("normal form witness: frame field 1, drift sign pairing = 1 (Holds)"),
        direction_label(0, "Singular"),
        steeper(4, 0, 2.0),
        direction_label(2, "Smooth"),
        direction_label(6, "Smooth"),
    ]
    approx = "[approx]\nnx = {nx}\norder = 8\nb = {b}\nu0 = {u0}\n"
    return [
        Input(
            "wavefront-gaussian",
            _file(0, 1, 1, mizohata, FBI.format(data="gaussian", param=f"sigma = {sigma}\n")),
            "wavefront",
            checks=[line("scan: data = gaussian, kappa = 1, dirs = 8")]
            + [direction_label(i, "Smooth") for i in range(8)],
        ),
        Input(
            "wavefront-heaviside",
            _file(0, 1, 1, mizohata, FBI.format(data="heaviside", param="")),
            "wavefront",
            checks=[
                direction_label(0, "Singular"),
                direction_label(4, "Singular"),
                direction_label(2, "Smooth"),
                direction_label(6, "Smooth"),
            ],
        ),
        Input(
            "wavefront-boundary-covector",
            _file(0, 1, 1, mizohata, FBI.format(data="boundary", param=f"delta = {delta}\n")),
            "wavefront",
            ["--covector", "s1=-1"],
            boundary_checks,
        ),
        # D = d/dt - i t d/dx lowers the weight (x: 2, t: 1) by one, so the
        # tail i D c_8 of x^5 (weight 10) is nonzero and that of x (weight 2) is 0
        Input(
            "approx-nx1",
            _file(0, 1, 1, mizohata, approx.format(nx=1, b="-t", u0=f"{_coef(a)}*x1^5 + {_coef(c)}*x1")),
            "approx",
            checks=[approx_radii(8), approx_sups(True)],
        ),
        Input(
            "approx-nx2",
            _file(0, 1, 1, mizohata, approx.format(nx=2, b="-t, -t", u0=f"{_coef(a)}*x1^5 + {_coef(e)}*x2")),
            "approx",
            checks=[approx_radii(8), approx_sups(True)],
        ),
        Input(
            "approx-nx1-exact",
            _file(0, 1, 1, mizohata, approx.format(nx=1, b="-t", u0=f"{_coef(c)}*x1")),
            "approx",
            checks=[approx_radii(8), approx_sups(False)],
        ),
    ]


WORKLOADS = {
    "catalog": catalog_inputs,
    "exact_stress": exact_stress_inputs,
    "numeric": numeric_inputs,
}
