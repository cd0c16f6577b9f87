"""The four benchmark workloads.

A workload draws its inputs from the seed, prepares its oracle
references once, and then runs passes.  A pass is a fixed sequence of
operations: in-process CLI runs (``cli.main(argv)``) and public library
calls.  Every operation is checked against an independent reference
(see oracles.py); an unexpected exception, an unexpected exit code or
a missed reference counts the operation as failed.

The inputs only vary where the work stays the same size, so that the
spread between seeds measures the program rather than the inputs.
Only interfaces the roadmap keeps are driven: no ``--threads`` option,
no reads of coefficient containers (records are compared through their
schema-1 JSON form).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from maasslab import cli, dde, density, ingest, sieve
from maasslab.errors import PreconditionError

import oracles as orc
from oracles import Miss, expect, expect_close, expect_rel


class Ops:
    """Counts checked operations and keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def call(self, label: str, fn, check):
        """Run one library call and check its result; None on failure."""
        self.attempted += 1
        try:
            result = fn()
            check(result)
            return result
        except Exception as exc:       # any failure is recorded, not raised
            self.failures.append({"op": label, "error": f"{type(exc).__name__}: {exc}"})
            return None

    def cli(self, label: str, argv: list[str], check):
        """Run the CLI in-process with captured output; exit code 0 expected."""
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            if rc != 0:
                raise Miss(f"exit code {rc}: {err.getvalue()[-300:]}")
            return out.getvalue()
        return self.call(label, run, check)


def _json_result(text: str) -> dict:
    doc = json.loads(text)
    doc.pop("config", None)      # the config echo is host-dependent
    return doc


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines]


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path, wrong_oracle: bool):
        self.rng = np.random.default_rng(np.random.SeedSequence(seed % 2 ** 64))
        self.work_dir = work_dir
        self.wrong_oracle = wrong_oracle
        self.inputs: dict = {}

    def setup(self) -> None:
        """Prepare oracle references (not timed)."""

    def run_pass(self, ops: Ops) -> None:
        raise NotImplementedError

    def input_digest(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class MeanValue(Workload):
    """Large-array sieve work: the asymptotic report on a 10^7 table and
    log-weighted sums at x = 10^6."""

    name = "mean-value"
    LIMIT = 10 ** 7
    U_GRID = "0.5,1.0,1.5,1.75"
    LWS_X = 10 ** 6

    def __init__(self, seed, work_dir, wrong_oracle):
        super().__init__(seed, work_dir, wrong_oracle)
        rng = self.rng
        # Y in [9900, 10^4] keeps y^1.75 (the largest row) within 2% of 10^7
        self.inputs = {
            "y": int(rng.integers(9900, 10001)),
            "chi0": int(rng.choice([1, 2, 3])),
            "chi1": -int(rng.choice([1, 2, 3])),
            "q": int(rng.choice([1, 6, 30])),
            "log_weighted": [
                {"y": int(rng.integers(100, 10 ** 5)),
                 "chi0": int(rng.choice([1, 2, 3])),
                 "chi1": -int(rng.choice([1, 2, 3])),
                 "q": int(rng.choice([1, 6, 30]))} for _ in range(3)],
        }

    def setup(self):
        inp = self.inputs
        # brute force for the smallest-t row through MultFuncSpec.value
        t_min = int(inp["y"] ** 0.5)
        spec = sieve.MultFuncSpec.threshold(inp["y"], inp["chi0"], inp["chi1"],
                                            q=inp["q"])
        small = sieve.build_table(max(t_min, 2))
        self.smallest_row = (t_min, sum(spec.value(n, small) for n in range(1, t_min + 1)
                                        if math.gcd(n, inp["q"]) == 1))
        if self.wrong_oracle:
            self.smallest_row = (t_min, self.smallest_row[1] + 1.0)
        self.lws_refs = []
        for s in inp["log_weighted"]:
            vals = orc.threshold_values(self.LWS_X, s["y"], s["chi0"], s["chi1"], s["q"])
            self.lws_refs.append(orc.log_weighted(vals, float(self.LWS_X)))
        self.pi_lws = int(orc.primes(self.LWS_X).size)

    def _check_report(self, text: str) -> None:
        rows = _csv_rows(text)
        expect(rows[0] == ["y", "u", "exact", "predicted", "rel_error"],
               f"unexpected header {rows[0]}")
        body = rows[1:]
        grid = [float(u) for u in self.U_GRID.split(",")]
        expect([float(r[1]) for r in body] == grid, "u column differs from the grid")
        expect(all(int(r[0]) == self.inputs["y"] for r in body), "y column differs")
        exact = [float(r[2]) for r in body]
        expect(all(e.is_integer() for e in exact), f"non-integer exact sums {exact}")
        expect(all(math.isfinite(float(r[3])) for r in body), "non-finite prediction")
        t_min, ref = self.smallest_row
        expect(exact[0] == ref,
               f"H({t_min}) = {exact[0]}, brute force gives {ref}")

    def _check_table(self, table) -> None:
        expect(table.limit == self.LWS_X, f"table limit {table.limit}")
        expect(table.prime_count(self.LWS_X) == self.pi_lws,
               f"pi({self.LWS_X}) = {table.prime_count(self.LWS_X)}, want {self.pi_lws}")

    def run_pass(self, ops):
        inp = self.inputs
        ops.cli("sieve-verify asymptotic",
                ["sieve-verify", "--report", "asymptotic", "--limit", str(self.LIMIT),
                 "--y", str(inp["y"]), "--u-grid", self.U_GRID, "--q", str(inp["q"]),
                 "--chi0", str(inp["chi0"]), "--chi1", str(inp["chi1"])],
                self._check_report)
        table = ops.call("build_table 1e6", lambda: sieve.build_table(self.LWS_X),
                         self._check_table)
        for s, (ref, scale) in zip(inp["log_weighted"], self.lws_refs):
            spec = sieve.MultFuncSpec.threshold(s["y"], s["chi0"], s["chi1"])
            ops.call(f"log_weighted_sum {s}",
                     lambda: sieve.log_weighted_sum(spec, float(self.LWS_X), s["q"], table),
                     lambda got: expect_close(got, ref, 1e-9 * max(scale, 1.0),
                                              "log-weighted sum"))


class Positivity(Workload):
    """Many short sieve calls: the positivity sweep at growing z, one
    expected precondition failure, and the CLI cross-checks."""

    name = "positivity"
    LIMIT = 10 ** 5
    Z_PASS = (4000, 8000, 16000)
    Z_FAIL = 24000

    def __init__(self, seed, work_dir, wrong_oracle):
        super().__init__(seed, work_dir, wrong_oracle)
        rng = self.rng
        ps = orc.primes(self.LIMIT).tolist()
        # b(p) = h(p) + delta with delta in {0, 1/2, 1}: b >= h, exact in binary
        deltas = (rng.integers(0, 3, size=len(ps)) / 2.0).tolist()
        self.inputs = {"b_delta": dict(zip(map(str, ps), deltas)),
                       "checks_seed": int(rng.integers(0, 2 ** 31))}

    def setup(self):
        self.h = sieve.MultFuncSpec.threshold(500, 2, -2)
        b_vals = {int(p): self.h.prime_value(int(p)) + d
                  for p, d in self.inputs["b_delta"].items()}
        self.b = sieve.MultFuncSpec.from_table(b_vals)
        self.table = sieve.build_table(self.LIMIT)
        self._violations: dict[tuple, bool] = {}
        self.want_pass = not self.wrong_oracle

    def _is_violation(self, witness) -> bool:
        """Brute force: is the partial sum of h over n <= t coprime to r
        negative?  Memoised per witness; the inputs never change."""
        if witness not in self._violations:
            t, r = witness
            total = sum(self.h.value(n, self.table) for n in range(1, t + 1)
                        if math.gcd(n, r) == 1)
            self._violations[witness] = total < 0
        return self._violations[witness]

    def _check_failure(self, exc) -> None:
        expect(isinstance(exc, PreconditionError),
               f"z = {self.Z_FAIL} did not raise PreconditionError")
        w = exc.witness
        expect(isinstance(w, tuple) and len(w) == 2 and all(isinstance(v, int) for v in w),
               f"witness {w!r} is not a (t, r) pair")
        expect(self._is_violation(w), f"witness {w!r} is not a violation")

    def _check_checks(self, text: str) -> None:
        doc = _json_result(text)
        expect(doc["all_passed"] is True, f"checks failed: {doc['checks']}")
        expect(len(doc["checks"]) == 5 and all(c["passed"] for c in doc["checks"]),
               f"unexpected checks {doc['checks']}")

    def run_pass(self, ops):
        table = ops.call("build_table 1e5", lambda: sieve.build_table(self.LIMIT),
                         lambda t: expect(t.limit == self.LIMIT, "table limit"))
        for z in self.Z_PASS:
            ops.call(f"lower_bound_check z={z}",
                     lambda: sieve.lower_bound_check(self.b, self.h, z, 1, table),
                     lambda ok: expect(ok is self.want_pass, f"returned {ok!r}"))

        def expect_raise():
            try:
                sieve.lower_bound_check(self.b, self.h, self.Z_FAIL, 1, table)
            except PreconditionError as exc:
                return exc
            return None
        ops.call(f"lower_bound_check z={self.Z_FAIL}", expect_raise, self._check_failure)
        ops.cli("sieve-verify checks",
                ["sieve-verify", "--seed", str(self.inputs["checks_seed"])],
                self._check_checks)


class DensityScan(Workload):
    """Record generation, cache writes and reads, validation and the
    exceptional-prime scan."""

    name = "density-scan"
    X = 10 ** 6
    FIXTURES = ("fixture-mixed-1", "fixture-mixed-2")
    FIXTURE_LEVELS = (6, 10)
    # intersection of the two fixtures' non-tempered primes in the manifest
    FIXTURE_EXCEPTIONAL = (11, 101)
    LABELS = ("seeded-a", "seeded-b", "seeded-c")
    LEVELS = (6, 10, 14, 15, 21, 22, 33, 35)

    def __init__(self, seed, work_dir, wrong_oracle):
        super().__init__(seed, work_dir, wrong_oracle)
        rng = self.rng
        levels = [int(v) for v in rng.choice(self.LEVELS, size=3)]
        ps = orc.primes(self.X)
        level_prod = math.prod(levels)
        free = ps[(ps >= 11) & (level_prod % ps != 0)]
        picked = rng.choice(free, size=4 + 3 * 3, replace=False).tolist()
        common = sorted(picked[:4])
        extras = [sorted(picked[4 + 3 * i:7 + 3 * i]) for i in range(3)]
        self.inputs = {"levels": levels, "common": common, "extras": extras,
                       "spectral": [round(float(v), 2) for v in rng.uniform(1, 10, 3)],
                       "theta_seed": int(rng.integers(0, 2 ** 31))}

    def setup(self):
        self.cache_dir = self.work_dir / "cache"
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        inp = self.inputs
        ps = orc.primes(self.X)
        rng = np.random.default_rng(inp["theta_seed"])
        self.docs = {}
        lam_at = []
        for label, level, t, extra in zip(self.LABELS, inp["levels"],
                                          inp["spectral"], inp["extras"]):
            lam = 2.0 * np.cos(rng.random(ps.size) * math.pi)
            for p in inp["common"] + extra:
                i = int(np.searchsorted(ps, p))
                nu = float(rng.uniform(0.02, 0.1))
                lam[i] = p ** nu + p ** (-nu)
            ramified = min(int(p) for p in ps[:10] if level % int(p) == 0)
            keep = (level % ps != 0) | (ps == ramified)
            pairs = [[int(p), float(a)] for p, a in zip(ps[keep], lam[keep])]
            doc = {"schema": 1, "label": label, "level": level,
                   "spectral_parameter": t, "coefficients": pairs,
                   "fetched_at": "2025-01-01T00:00:00Z", "source": "remote"}
            (self.cache_dir / f"{label}.json").write_text(json.dumps(doc))
            self.docs[label] = (doc, ramified)
            lam_at.append(lam)
        level_prod = math.prod(inp["levels"])
        scanned = level_prod % ps != 0
        self.seeded_pi = int(np.count_nonzero(scanned))
        self.seeded_mean_u = orc.scan_weight_mean([lam[scanned] for lam in lam_at])
        fixture_prod = math.prod(self.FIXTURE_LEVELS)
        self.fixture_primes = ps[fixture_prod % ps != 0]
        self.fixture_mean_u = None     # from the cache files the first scan writes
        self.want_fixture = list(self.FIXTURE_EXCEPTIONAL)
        if self.wrong_oracle:
            self.want_fixture.append(103)

    def _check_fixture_scan(self, text: str) -> None:
        doc = _json_result(text)
        n = int(self.fixture_primes.size)
        expect(doc["X"] == self.X and doc["pi_X"] == n,
               f"pi_X = {doc['pi_X']}, want {n} primes after level exclusion")
        # the CLI reports the count; the list itself is checked on the
        # seeded family through the library
        want = len(self.want_fixture)
        expect(doc["exceptional_count"] == want,
               f"{doc['exceptional_count']} exceptional primes, want {want}")
        expect_rel(doc["implied_upper"], want / n, 1e-15, "implied_upper")
        expect_rel(doc["theory_bound"], 1 / 44, 1e-15, "theory_bound")
        if self.fixture_mean_u is None:
            lams = []
            for label in self.FIXTURES:
                cached = json.loads((self.cache_dir / f"{label}.json").read_text())
                lams.append(orc.eigenvalues_at(self.fixture_primes, cached["coefficients"]))
            self.fixture_mean_u = orc.scan_weight_mean(lams)
        expect_rel(doc["running_mean_U"], self.fixture_mean_u, 1e-12, "running_mean_U")

    def _check_record(self, label):
        doc, _ = self.docs[label]

        def check(rec):
            expect((rec.label, rec.level, rec.spectral_parameter)
                   == (label, doc["level"], doc["spectral_parameter"]),
                   f"record metadata differs for {label}")
            expect(rec.coverage() == doc["coefficients"][-1][0], "record coverage")
        return check

    def _check_findings(self, label):
        _, ramified = self.docs[label]

        def check(findings):
            got = [(f.severity, f.kind, f.p) for f in findings]
            expect(got == [("info", "ramified", ramified)], f"findings {got}")
        return check

    def _check_seeded_scan(self, report) -> None:
        want = self.inputs["common"]
        expect(report.exceptional_primes == want,
               f"exceptional primes {report.exceptional_primes}, want {want}")
        expect(report.pi_X == self.seeded_pi, f"pi_X = {report.pi_X}")
        expect_rel(report.running_mean_U, self.seeded_mean_u, 1e-12, "running_mean_U")

    def _check_fetch(self, label):
        doc, ramified = self.docs[label]

        def check(text):
            out = _json_result(text)
            rec = out["record"]
            for key in ("label", "level", "spectral_parameter", "coefficients"):
                expect(rec[key] == doc[key], f"fetched {key} differs for {label}")
            got = [(f["severity"], f["kind"], f["p"]) for f in out["findings"]]
            expect(got == [("info", "ramified", ramified)], f"findings {got}")
        return check

    def run_pass(self, ops):
        cache = str(self.cache_dir)
        ops.cli("density-report fixture pair",
                ["density-report", "--scan-labels", ",".join(self.FIXTURES),
                 "--x", str(self.X), "--coverage", str(self.X), "--cache-dir", cache],
                self._check_fixture_scan)
        records = [ops.call(f"fetch {label}",
                            lambda: ingest.fetch(label, coverage=self.X, cache_dir=cache),
                            self._check_record(label)) for label in self.LABELS]
        for label, rec in zip(self.LABELS, records):
            ops.call(f"validate {label}", lambda: ingest.validate(rec),
                     self._check_findings(label))
        ops.call("exceptional_scan 3-member family",
                 lambda: density.exceptional_scan(
                     density.FormFamily([r.to_form_meta() for r in records]), self.X),
                 self._check_seeded_scan)
        for label in self.LABELS[:2]:
            ops.cli(f"fetch {label}",
                    ["fetch", "--label", label, "--coverage", str(self.X),
                     "--cache-dir", cache], self._check_fetch(label))


class Constants(Workload):
    """The headline numbers: least-prime bounds, first zeros, a DDE grid,
    closed-form zeros and the Hecke-identity sweep."""

    name = "constants"

    def __init__(self, seed, work_dir, wrong_oracle):
        super().__init__(seed, work_dir, wrong_oracle)
        rng = self.rng
        self.inputs = {
            "levels2": [int(v) for v in rng.integers(1, 100, 2)],
            "spectral2": [round(float(v), 2) for v in rng.uniform(0, 20, 2)],
            "levels3": [int(v) for v in rng.integers(1, 100, 3)],
            "spectral3": [round(float(v), 2) for v in rng.uniform(0, 20, 3)],
            "identity_seed": int(rng.integers(0, 2 ** 31)),
        }

    def setup(self):
        self.two_zero = orc.TWO_FORM_ZERO + (1e-6 if self.wrong_oracle else 0.0)
        self.zeros = {}

    def _check_bound(self, levels, spectral, exponent, zero):
        def check(text):
            doc = _json_result(text)
            base = math.prod(n * (1.0 + abs(t)) for n, t in zip(levels, spectral))
            expect_rel(doc["base"], base, 1e-12, "base")
            expect(doc["exponent"] == exponent, f"exponent {doc['exponent']} != {exponent}")
            expect_close(doc["source_zero"], zero, 1e-7, "source_zero")
            expect(doc["exponent"] * doc["U_used"] >= 1.0, "exponent * U < 1")
            expect(doc["implied_constant"] == "unspecified", "implied_constant")
        return check

    def _check_zero(self, key, want):
        def check(text):
            got = _json_result(text)["first_zero"]
            expect_close(got, want, 1e-7, f"first zero {key}")
            self.zeros[key] = got
        return check

    def _check_closed_form(self, key, want):
        def check(got):
            expect_close(got, want, 1e-7, f"closed-form zero {key}")
            if key in self.zeros:
                expect_close(got, self.zeros[key], 1e-7, f"closed vs numeric zero {key}")
        return check

    def _check_grid(self, text: str) -> None:
        rows = _csv_rows(text)
        expect(rows[0] == ["u", "sigma"], f"unexpected header {rows[0]}")
        grid = np.array(rows[1:], dtype=np.float64)
        expect(grid.shape == (3001, 2), f"grid shape {grid.shape}")
        u, sig = grid[:, 0], grid[:, 1]
        on_closed = u <= 2.0
        err = float(np.max(np.abs(sig[on_closed] - orc.sigma_two_form(u[on_closed]))))
        expect(err < 1e-9, f"grid differs from the closed form on (0, 2] by {err:g}")
        first_neg = int(np.argmax((u > 1.0) & (sig <= 0.0)))
        expect(u[first_neg - 1] < self.two_zero <= u[first_neg],
               f"sign change at u = {u[first_neg]}")

    def run_pass(self, ops):
        inp = self.inputs
        for n, levels, spectral, exponent, zero in (
                (2, inp["levels2"], inp["spectral2"], orc.TWO_FORM_EXPONENT, self.two_zero),
                (3, inp["levels3"], inp["spectral3"], orc.THREE_FORM_EXPONENT,
                 orc.THREE_FORM_ZERO)):
            ops.cli(f"bound {n} forms",
                    ["bound", "--levels", ",".join(map(str, levels)),
                     "--spectral", ",".join(map(str, spectral))],
                    self._check_bound(levels, spectral, exponent, zero))
        self.zeros = {}
        pairs = (("2,-2", 2.0, -2.0, self.two_zero), ("1,-3", 1.0, -3.0, orc.THREE_FORM_ZERO))
        for key, chi0, chi1, want in pairs:
            ops.cli(f"first-zero ({key})",
                    ["first-zero", "--chi0", str(chi0), "--chi1", str(chi1),
                     "--tol", "1e-6", "--initial-step", "1e-5"],
                    self._check_zero(key, want))
        ops.cli("solve-dde (2,-2)",
                ["solve-dde", "--chi0", "2", "--chi1", "-2", "--step", "1e-5",
                 "--u-max", "3", "--stride", "100"], self._check_grid)
        for key, chi0, chi1, want in pairs:
            ops.call(f"closed_form_first_zero ({key})",
                     lambda: dde.closed_form_first_zero(dde.DdeSpec(chi0, chi1)),
                     self._check_closed_form(key, want))
        ops.cli("identity-check",
                ["identity-check", "--samples", "100000", "--seed",
                 str(inp["identity_seed"])],
                lambda text: expect(_json_result(text)["passed"] is True,
                                    "identity-check did not pass"))


WORKLOADS = {w.name: w for w in (MeanValue, Positivity, DensityScan, Constants)}
