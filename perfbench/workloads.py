"""The four benchmark workloads: seeded inputs, one request, output checks.

Each workload turns a seed into one pool of distinct requests during
set-up; every pass of the timed loop runs the whole pool. A workload has:

- `setup(seed, tiny)`: imports, input generation and warm-up;
- `run(request)`: one request through skeinlab's public API (or one CLI
  child process), returning its JSON-able output;
- `check(request, output)`: None, or a string saying what is wrong.

Pools are stratified: seeds change which curves, genera and N values are
drawn, but not how many requests of each size a pool holds, so that the
pool's latency quantiles and the cost of a pass are about the same for
every seed.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SL2_LETTERS = {
    "T": ((1, 1), (0, 1)),
    "t": ((1, -1), (0, 1)),  # T^-1
    "S": ((0, -1), (1, 0)),  # S^-1 = -S acts on curves as S does
}
CANCELLING = ("Tt", "tT", "SS")


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _draw_word(rng, max_len):
    """A word in T, T^-1, S without cancelling neighbours; empty 1 in 7."""
    length = rng.choice((0,) + tuple(n for n in range(1, max_len + 1) for _ in (0, 1)))
    word = ""
    while len(word) < length:
        letter = rng.choice("TtS")
        if word and word[-1] + letter in CANCELLING:
            continue
        word += letter
    matrix = ((1, 0), (0, 1))
    for letter in word:
        matrix = _mat_mul(matrix, SL2_LETTERS[letter])
    return word, matrix


@functools.lru_cache(maxsize=None)
def _primitive_classes(bound):
    return [
        (p, q)
        for p in range(-bound, bound + 1)
        for q in range(-bound, bound + 1)
        if gcd(p, q) == 1
    ]


def _act(matrix, pq):
    (a, b), (c, d) = matrix
    return (a * pq[0] + b * pq[1], c * pq[0] + d * pq[1])


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Workload:
    """Set-up shared by the workloads; subclasses supply prepare (imports),
    generate (the pool from the rng) and warm_up."""

    def setup(self, seed, tiny=False):
        self.prepare()
        rng = random.Random(f"{self.name}/{seed}")
        self.pool = self.generate(rng, tiny)
        self.warm_up()


def _certificate_problem(cert, n):
    """Checks shared by in-process and CLI detection requests."""
    errors = sorted(e.message for e in certificate_validator().iter_errors(cert))
    if errors:
        return "schema: " + errors[0]
    if cert["verdict"] == "certified-nontrivial":
        w = cert["witness"]
        if sorted((w["fiberAlpha"], w["fiberBeta"])) != [0, 1]:
            return f"witness fibers {w['fiberAlpha']}, {w['fiberBeta']} are not {{0, 1}}"
    alpha, beta = cert["alpha"], cert["beta"]
    # Theorem 2: distinct curves meeting every edge at most N-1 times are
    # detected. A request stopped by the point cap never got that far.
    if (
        alpha != beta
        and max(alpha) <= n - 1
        and max(beta) <= n - 1
        and "cap-exceeded" not in cert["reasons"]
        and cert["verdict"] != "certified-nontrivial"
    ):
        return "Theorem 2 bound holds but the pair was not certified"
    return None


@functools.lru_cache(maxsize=None)
def certificate_validator():
    from jsonschema import Draft202012Validator

    path = SRC / "skeinlab" / "schemas" / "certificate.schema.json"
    return Draft202012Validator(json.loads(path.read_text()))


# ---------------------------------------------------------------------------
# detect-mix


class DetectMix(Workload):
    """Genus-1 detection requests through detect_theorem2 / detect_support."""

    name = "detect-mix"
    # Requests per pool by stratum, from the frequencies of 60 000 draws of
    # `natural_request`, scaled to 120. "cap" holds pairs above the default
    # cap of 24 points, "iso" pairs where phi fixes the curve; the other
    # strata go by the larger point count m of the two curves.
    # - m <= 13 holds the median request, whose cost is set by coset
    #   projection (one SNF per support vector), so these pairs go by the
    #   support size of the two curves instead: 15 bins of about equal
    #   frequency, two requests each, so that every pool has the same
    #   support-size quantiles. A pool of 120, not 60, halves how much the
    #   N, cell and method drawn for the few requests next to the median
    #   move it from seed to seed.
    # - Above m = 20 the 2^m brute-force re-verification makes a certified
    #   request cost 0.2-1.5 s, so these 14 requests take most of a pass.
    #   Only pairs within the Theorem 2 bound are drawn there (all are
    #   certified, so each costs its two re-verifications), and never pairs
    #   whose second curve is also near m; otherwise whether a few tail
    #   requests happen to be ambiguous (cheap) or certified (dear) would
    #   decide the cost of a pass.
    SUPPORT_EDGES = (7, 11, 14, 20, 24, 30, 35, 40, 49, 55, 58, 64, 68, 79)
    QUOTAS = {
        "cap": 26, "iso": 18, **{f"s{i}": 2 for i in range(len(SUPPORT_EDGES) + 1)},
        "m14-15": 10, "m16-17": 8, "m18": 6, "m19-20": 8, "m21": 6, "m22": 2, "m23": 4, "m24": 2,
    }
    TINY_QUOTAS = {"iso": 1, "s0": 1, "s4": 1, "s8": 1, "cap": 1}
    LIGHT = ((15, "m14-15"), (17, "m16-17"), (18, "m18"), (20, "m19-20"))

    def prepare(self):
        from skeinlab import curves, detect, mcg

        self.curves, self.detect, self.mcg = curves, detect, mcg
        self.table = curves.torus_table()
        self.support_sizes = {}

    def warm_up(self):
        warm = {"curve": [1, 0], "phi": [[0, -1], [1, 0]], "N": 5,
                "cell": "reduced", "method": "theorem2"}
        _certificate_problem(self.run(warm), warm["N"])

    def support_size(self, pq):
        """k-vectors in the support of class pq; 26 classes have m <= 13,
        so this runs the walk DP at most 26 times during set-up."""
        p, q = pq
        key = (-p, -q) if p < 0 or (p == 0 and q < 0) else (p, q)
        if key not in self.support_sizes:
            sup = self.curves.enumerate_admissible_states(self.table.curve(*key))
            self.support_sizes[key] = len(sup.fibers)
        return self.support_sizes[key]

    def stratum(self, req):
        """The request's stratum, or None for a tail pair left out."""
        alpha, beta = tuple(req["curve"]), _act(req["phi"], req["curve"])
        ca, cb = self.table.predicted_coords(*alpha), self.table.predicted_coords(*beta)
        if ca == cb:
            return "iso"
        m_low, m = sorted((sum(ca), sum(cb)))
        if m > self.curves.DEFAULT_STATE_CAP:
            return "cap"
        if m <= 13:
            size = self.support_size(alpha) + self.support_size(beta)
            return f"s{bisect.bisect_left(self.SUPPORT_EDGES, size)}"
        for top, name in self.LIGHT:
            if m <= top:
                return name
        within_bound = max(ca + cb) <= req["N"] - 1
        return f"m{m}" if within_bound and m_low < m - 3 else None

    def natural_request(self, rng):
        alpha = rng.choice(_primitive_classes(6))
        word, matrix = _draw_word(rng, 3)
        return {
            "curve": list(alpha),
            "word": word,
            "phi": [list(r) for r in matrix],
            "N": rng.choice((3, 5, 7, 11)),
            "cell": rng.choice(("reduced", "big")),
            "method": rng.choice(("theorem2", "support")),
        }

    def generate(self, rng, tiny=False):
        left = dict(self.TINY_QUOTAS if tiny else self.QUOTAS)
        pool = []
        while any(left.values()):
            req = self.natural_request(rng)
            key = self.stratum(req)
            if left.get(key, 0) > 0:
                left[key] -= 1
                pool.append(req)
        rng.shuffle(pool)
        return pool

    def run(self, req):
        d = self.detect
        request = d.DetectionRequest(
            genus=1,
            N=req["N"],
            cell=req["cell"],
            curve=tuple(req["curve"]),
            phi=self.mcg.MappingClass(1, matrix=req["phi"]),
        )
        runner = d.detect_support if req["method"] == "support" else d.detect_theorem2
        return runner(request).to_json()

    def check(self, req, out):
        return _certificate_problem(out, req["N"])


# ---------------------------------------------------------------------------
# algebra


class Algebra(Workload):
    """Lattice info, refined-lattice lemma reports and torus irreps."""

    name = "algebra"
    # Lattice and lemma costs depend on the genus alone, not on N, so the
    # seed draws N freely there; irrep costs grow steeply with N, so the
    # irreps are the same for every seed.
    LATTICE_GENERA = (1, 2, 3, 4, 5, 6)
    LATTICE_PER_GENUS = 2
    REFINED_GENERA = (1, 2, 3, 4)
    REFINED_PER_GENUS = 2
    IRREPS = ((1, 3), (1, 5), (1, 7), (1, 9), (1, 11), (2, 3))

    def prepare(self):
        from skeinlab import qtorus, surface

        self.qtorus, self.surface = qtorus, surface

    def warm_up(self):
        self.run({"kind": "lattice", "genus": 1, "N": 3})

    def generate(self, rng, tiny=False):
        if tiny:
            pool = [
                {"kind": "lattice", "genus": g, "N": rng.choice((3, 5, 7))} for g in (1, 2)
            ]
            pool.append({"kind": "refined", "genus": 1, "N": rng.choice((3, 5, 7))})
            pool.append({"kind": "irrep", "genus": 1, "N": 3})
        else:
            pool = [
                {"kind": "lattice", "genus": g, "N": rng.choice((3, 5, 7))}
                for g in self.LATTICE_GENERA
                for _ in range(self.LATTICE_PER_GENUS)
            ]
            pool += [
                {"kind": "refined", "genus": g, "N": rng.choice((3, 5, 7))}
                for g in self.REFINED_GENERA
                for _ in range(self.REFINED_PER_GENUS)
            ]
            pool += [{"kind": "irrep", "genus": g, "N": n} for g, n in self.IRREPS]
        rng.shuffle(pool)
        return pool

    def run(self, req):
        s = self.surface
        g, n = req["genus"], req["N"]
        lattice = s.BalancedLattice(s.build_sigma_g_star(g))
        if req["kind"] == "lattice":
            definitional, _, equal = lattice.central_sublattice(n)
            pd = lattice.pi_degree(n)
            return {
                "genus": g, "N": n, "rank": lattice.rank, "basis": lattice.basis,
                "wpForm": lattice.form, "centralSublattice": definitional,
                "eqK0Match": equal, "index": pd["index"], "piDegreeReduced": pd["piDegree"],
            }
        if req["kind"] == "refined":
            return s.RefinedLattice(lattice).lemma_comparison(n)
        irrep = self.qtorus.build_irrep(lattice.skew_lattice(), n)
        return {
            "genus": g, "N": n, "irrepDimension": irrep.dimension,
            "piDegree": lattice.pi_degree(n)["piDegree"],
            "pairInvariants": irrep.pair_invariants, "pairOrders": irrep.pair_orders,
        }

    def check(self, req, out):
        g, n = req["genus"], req["N"]
        if req["kind"] == "lattice":
            if out["piDegreeReduced"] != n ** (3 * g - 1):
                return f"piDegree {out['piDegreeReduced']} != N^(3g-1)"
            if out["eqK0Match"] is not True:
                return "eqK0Match is false"
        elif req["kind"] == "refined":
            if out["index"] != n ** (6 * g):
                return f"refined index {out['index']} != N^(6g)"
        elif out["irrepDimension"] != out["piDegree"]:
            return f"irrep dimension {out['irrepDimension']} != PI-degree {out['piDegree']}"
        return None


# ---------------------------------------------------------------------------
# qtrace-large


class QtraceLarge(Workload):
    """Walk-DP supports of large primitive torus curves (qtrace support)."""

    name = "qtrace-large"
    # Classes drawn per intersection point count m. Every m = 48 and m = 64
    # class is drawn, and no class of another m costs as much as either, so
    # the median request (the 4th of the six m = 48 classes) and the two
    # requests the 90th percentile lies between (m = 64) are the same for
    # every seed, as is the largest support, which sets peak memory.
    PER_M = {30: 2, 39: 3, 48: 6, 55: 2, 64: 4}
    # Only classes whose smallest nonzero edge weight is at least this
    # share of the largest: at equal m, lopsided classes such as (1, q)
    # have 2-5x smaller supports, and drawing them would make the cost of
    # a pass depend on the seed.
    THICKNESS = 0.3
    CAP = 96  # above every m drawn, as in `qtrace support --cap 96`

    def prepare(self):
        from skeinlab import curves

        self.curves = curves
        self.table = curves.torus_table()
        self.by_m = {m: [] for m in self.PER_M}
        for p in range(0, 48):
            for q in range(-48, 48):
                if gcd(p, q) != 1 or (p == 0 and q < 0):
                    continue
                coords = self.table.predicted_coords(p, q)
                m = sum(coords)
                nonzero = [c for c in coords if c]
                if m in self.by_m and min(nonzero) >= self.THICKNESS * max(nonzero):
                    self.by_m[m].append((p, q))

    def warm_up(self):
        self.run({"curve": [1, 1], "cap": self.CAP})

    def generate(self, rng, tiny=False):
        per_m = {30: 2} if tiny else self.PER_M
        pool = [
            {"curve": list(pq), "m": m, "cap": self.CAP}
            for m, count in per_m.items()
            for pq in sorted(rng.sample(self.by_m[m], count))
        ]
        # In order of m: peak memory depends on what ran before the largest
        # supports, and a shuffled order made it differ by 2 MB between seeds.
        return pool

    def run(self, req):
        c = self.curves
        curve = self.table.curve(*req["curve"])
        sup = c.enumerate_admissible_states(curve, cap=req["cap"])
        return {
            "curve": curve.to_json(),
            "states": sup.state_count,
            "support": [{"k": list(k), "fiber": sup.fibers[k]} for k in sorted(sup.fibers)],
            "boundsOK": c.support_bounds_check(sup, curve),
        }

    def check(self, req, out):
        if out["boundsOK"] is not True:
            return "support_bounds_check failed"
        if sum(int(v) for v in out["curve"]["coords"].values()) != req["m"]:
            return "curve has the wrong number of intersection points"
        if out["states"] != sum(e["fiber"] for e in out["support"]):
            return "state count differs from the fiber total"
        return None


# ---------------------------------------------------------------------------
# cli-cold


def cli_env():
    """Child environment: PYTHONPATH=src (the package is not installed) and
    no SKEINLAB_THREADS, so batches run on one thread."""
    env = dict(os.environ)
    env.pop("SKEINLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class CliCold(Workload):
    """Fresh `python -m skeinlab.cli ...` processes, one at a time."""

    name = "cli-cold"
    COMMANDS = ("detect", "lattice", "qtorus", "qtrace", "surface", "batch")
    TIMEOUT_S = 120

    def prepare(self):
        self.env = cli_env()
        self.child_summaries = []
        certificate_validator()

    def warm_up(self):
        self.run({"kind": "surface", "genus": 1, "argv": ["surface", "info"]})

    def generate(self, rng, tiny=False):
        pool = [getattr(self, "_make_" + name)(rng) for name in self.COMMANDS]
        rng.shuffle(pool)
        return pool

    # Small curves and short words, so that a command costs about what its
    # imports cost.
    def _detect_obj(self, rng):
        alpha = rng.choice(_primitive_classes(2))
        word = ""
        while not word:
            word, matrix = _draw_word(rng, 2)
        return {
            "curve": f"{alpha[0]},{alpha[1]}",
            "phi": {"matrix": [list(r) for r in matrix]},
            "N": rng.choice((3, 5, 7)),
            "cell": rng.choice(("reduced", "big")),
            "method": rng.choice(("theorem2", "support")),
        }

    def _make_detect(self, rng):
        o = self._detect_obj(rng)
        # "--curve=-1,2": a separate "-1,2" would parse as an option
        argv = ["detect", f"--curve={o['curve']}", "--phi", json.dumps(o["phi"]),
                "--N", str(o["N"]), "--cell", o["cell"], "--method", o["method"]]
        return {"kind": "detect", "N": o["N"], "argv": argv}

    def _make_batch(self, rng):
        objs = [self._detect_obj(rng) for _ in range(3)]
        return {"kind": "batch", "Ns": [o["N"] for o in objs],
                "argv": ["detect", "--batch", json.dumps(objs)]}

    def _make_lattice(self, rng):
        g, n = rng.choice((1, 2)), rng.choice((3, 5, 7))
        return {"kind": "lattice", "genus": g, "N": n,
                "argv": ["lattice", "info", "--genus", str(g), "--N", str(n)]}

    def _make_qtorus(self, rng):
        return {"kind": "qtorus", "genus": 1, "N": 3,
                "argv": ["qtorus", "selftest", "--genus", "1", "--N", "3"]}

    def _make_qtrace(self, rng):
        p, q = rng.choice(_primitive_classes(4))
        return {"kind": "qtrace", "argv": ["qtrace", "support", f"--curve={p},{q}", "--cap", "24"]}

    def _make_surface(self, rng):
        g = rng.choice((1, 2, 3))
        return {"kind": "surface", "genus": g, "argv": ["surface", "info", "--genus", str(g)]}

    def run(self, req, command=None):
        proc = subprocess.run(
            command or [sys.executable, "-m", "skeinlab.cli"] + req["argv"], env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=self.TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
            )
        return json.loads(proc.stdout)

    def run_traced(self, req):
        """The same command under perfbench/tracer.py, which writes the
        child's span summary to a file read back here."""
        path = ROOT / ".perfbench" / f"cli-child-{os.getpid()}.json"
        path.parent.mkdir(exist_ok=True)
        tracer_py = str(Path(__file__).resolve().parent / "tracer.py")
        try:
            out = self.run(req, command=[sys.executable, tracer_py, str(path)] + req["argv"])
            self.child_summaries.append(json.loads(path.read_text()))
        finally:
            path.unlink(missing_ok=True)
        return out

    def check(self, req, out):
        kind = req["kind"]
        if kind == "detect":
            return _certificate_problem(out, req["N"])
        if kind == "batch":
            certs = out["certificates"]
            if len(certs) != len(req["Ns"]):
                return "batch returned the wrong number of certificates"
            for cert, n in zip(certs, req["Ns"]):
                problem = _certificate_problem(cert, n)
                if problem:
                    return problem
            return None
        if kind == "lattice":
            if out["piDegreeReduced"] != req["N"] ** (3 * req["genus"] - 1):
                return "piDegree != N^(3g-1)"
            return None if out["eqK0Match"] is True else "eqK0Match is false"
        if kind == "qtorus":
            if out["irrepDimension"] != out["piDegree"] or not out["dimensionMatchesPiDegree"]:
                return "irrep dimension != PI-degree"
            return None
        if kind == "qtrace":
            return None if out["boundsOK"] is True else "support_bounds_check failed"
        g = req["genus"]
        expected = (4 * g - 1, 6 * g - 1, 1, 2 * g)
        got = (out["faces_count"], out["edges_count"], out["boundary_arcs"], out["check"]["h1rank"])
        return None if got == expected else f"surface counts {got} != {expected}"


WORKLOADS = {w.name: w for w in (DetectMix, Algebra, QtraceLarge, CliCold)}
