"""Seeded inputs and operations for the four benchmark workloads.

Every input is drawn from one numpy Generator seeded by the workload seed,
and divlab sees only those inputs: chain and channel files for the CLI
reports, arrays for the single-call library checks.  An op is one CLI report
or one checked input pair or certificate.  ``Op.call`` is the timed call into
divlab; ``Op.check`` turns its result into a list of problems (empty when the
op passes).  A call whose documented contract is to raise passes when it
raises that error.

Why each workload was chosen:

chain-binary
    ``analyze-chain`` on 2-state chains at the default ``--profile-n 6``:
    KL on symmetric BSC(p) and ``pearson_chi2`` on asymmetric two-state
    chains.  The 4096-point binary candidate grid dominates: per KL report
    about 58.7k ``f_divergence`` and 175k ``as_weight_vec`` calls, plus
    28.7k ``kappa_bounds`` calls, while ``markov`` takes almost nothing.  A batched divergence kernel shows here;
    a chain-structure change should show nothing.
chain-wide
    ``analyze-chain`` on sparse |X| = 64 chains with 6 positive entries per
    column, irreducible and aperiodic by construction, with ``pearson_chi2``
    and KL.  ``structure()``'s boolean powering runs twice per report and κ
    over the Dirichlet cloud takes about 40 %; the binary-grid path is
    bypassed.  512-state chains are left
    out: ``structure()`` needs O(n⁴) memory there, so ``analyze-chain``
    cannot run on them yet.
quantum
    ``quantum-analyze`` on d = 4 channels: KL on random 3-Kraus isometries
    and reverse KL on depolarizing channels with seeded λ.  Three
    sampled Petz estimates per report take about four fifths of the time,
    plus ``channel_structure`` twice; the classical divergence kernel and
    ``markov`` are bypassed.  d = 8 is left out: one report would take about
    40 s.  Channels whose second eigenvalue exceeds about 0.75 (λ < 0.25,
    and some isometries) mix too slowly for the report's 64-step probe,
    which reports them as not mixing and skips the contraction section;
    such reports are listed as a known defect (see ``KnownDefect``).
bounds
    single library calls on seeded pairs: ``f_divergence``,
    ``chi2_sandwich``, ``reverse_pinsker``, ``check_pinsker`` and
    ``integral_representation`` for every generator at |X| in {8, 64, 512}
    (a share with zeros outside the support), ``bregman_sandwich`` with
    negative-entropy and quadratic F at |X| <= 64, ``petz_bounds_report`` at
    d in {2, 4, 8} (rank-deficient states included), a few ``divergence``
    CLI calls and one ``verify-constants --grid 512`` per run.  This is the
    divergence layer used one small pair at a time with validation on every
    call, so a change that speeds batched scoring but taxes single calls
    shows here.  It is also the only workload that runs ``pinsker`` and
    ``bregman``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import divlab
from divlab import cli as divlab_cli

# slack of the CLI's own estimate-vs-bound checks; reused for every
# "estimate not above its bound or exact value" check below
BOUND_SLACK = 1e-9
# closed-form eta_chi2 of BSC(p) at the uniform reference
CLOSED_FORM_TOL = 1e-12
# criterion 7 of the acceptance suite pins the quadrature at this tolerance
QUADRATURE_TOL = 1e-8
# the check slack the library itself uses in chi2_sandwich and check_pinsker
CHECK_SLACK = 1e-10
# how far a sampled ratio estimate can sit above the exact value from rounding
# alone: f evaluations near t = 1 carry ~1e-16 absolute error (the note on
# contraction.NUMERATOR_NOISE_FLOOR) and the estimators accept denominators
# down to 1e-12, so a ratio near the reference can be off by ~1e-4
RATIO_NOISE = 1e-4
# a channel whose second eigenvalue is at most this far below 1 is treated
# as not mixing
MIXING_GAP = 1e-6


class KnownDefect(str):
    """A finding of one of the program's two known defects at seed.

    * ratio noise: a sampled estimate above its exact reference by more than
      BOUND_SLACK but at most RATIO_NOISE.  Candidates next to the reference
      point have denominators near 1e-12, whose rounding noise the estimate
      keeps instead of staying a lower bound.
    * mixing probe: quantum-analyze reports a channel whose second
      eigenvalue is below 1 as not mixing and skips its contraction section,
      because channel_structure iterates only 64 steps to a 1e-8 tolerance,
      too few once the second eigenvalue exceeds about 0.75.

    Ops with these findings count in ``failed_frac`` and are listed under
    ``known_defects``; the result line's ``failed`` and ``correct`` count
    every other finding, i.e. wrong outputs outside these two defects.
    """

    # the op skipped part of its work, so its time is not the op's time
    skips_work = False


class RatioNoise(KnownDefect):
    pass


class MixingProbe(KnownDefect):
    skips_work = True


@dataclass
class Op:
    """One timed call into divlab and the checks on its result."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    expect: type[Exception] | None = None  # documented error the call raises
    # (exact - estimate) / exact for ops whose output has an exact reference
    shortfall: Callable[[object], float | None] | None = None
    # the op's place in the workload's mix: "generator/input kind" of a
    # report; single calls share one kind
    kind: str = "single"


@dataclass
class Sizes:
    """Input sizes of one run; ``smoke`` selects the smallest ones."""

    profile_n: int
    wide_n: int
    quantum_d: int
    pair_dims: tuple[int, ...]
    bregman_dims: tuple[int, ...]
    petz_dims: tuple[int, ...]
    verify_grid: int

    @classmethod
    def pick(cls, smoke: bool) -> "Sizes":
        if smoke:
            return cls(profile_n=2, wide_n=8, quantum_d=2, pair_dims=(8,),
                       bregman_dims=(8,), petz_dims=(2,), verify_grid=64)
        return cls(profile_n=6, wide_n=64, quantum_d=4, pair_dims=(8, 64, 512),
                   bregman_dims=(8, 64), petz_dims=(2, 4, 8), verify_grid=512)


# ---------------------------------------------------------------------------
# calling the CLI in-process


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``divlab.cli.run(argv)`` with stdout and stderr captured.  The JSON
    it prints holds infinities as the strings "inf"/"-inf", which float()
    reads back."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = divlab_cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _report_of(result) -> tuple[dict | None, list[str]]:
    rc, out, err = result
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}: {err.strip()[:200]}")
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return None, problems + ["report is not valid JSON"]
    if report.get("violations"):
        problems.append(f"violations: {report['violations']}")
    return report, problems


def _not_above(problems: list[str], what: str, value: float, limit: float) -> None:
    if math.isfinite(limit) and value > limit + BOUND_SLACK:
        problems.append(f"{what} {value!r} above {limit!r} by {value - limit:.3g}")


def _estimate_not_above(problems: list[str], what: str, value: float, exact: float) -> None:
    """A sampled estimate against its exact reference: above it by at most
    RATIO_NOISE is the known ratio-noise defect, beyond that a wrong output."""
    if value > exact + RATIO_NOISE:
        _not_above(problems, what, value, exact)
    elif value > exact + BOUND_SLACK:
        problems.append(RatioNoise(
            f"ratio noise: {what} {value!r} above {exact!r} by {value - exact:.3g}"))


# ---------------------------------------------------------------------------
# seeded inputs


def _write_matrix(path: str, W: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in W:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_kraus(path: str, ops: list[np.ndarray]) -> None:
    payload = {
        "kraus": [
            {"re": K.real.tolist(), "im": K.imag.tolist()} for K in ops
        ]
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def binary_chain(rng: np.random.Generator, symmetric: bool) -> tuple[np.ndarray, dict]:
    if symmetric:
        p = float(rng.uniform(0.05, 0.45))
        return divlab.bsc(p), {"kind": "bsc", "p": p}
    a, b = (float(x) for x in rng.uniform(0.05, 0.6, size=2))
    W = np.array([[1.0 - a, b], [a, 1.0 - b]])
    return W, {"kind": "asym", "a": a, "b": b}


def sparse_chain(rng: np.random.Generator, n: int, per_column: int = 6) -> np.ndarray:
    """Column-stochastic chain with ``per_column`` positive entries per column.

    Every column holds a self-loop and the cycle edge x -> x+1, so the chain
    is irreducible and aperiodic by construction.
    """
    W = np.zeros((n, n))
    for x in range(n):
        fixed = {x, (x + 1) % n}
        others = [y for y in range(n) if y not in fixed]
        extra = rng.choice(others, size=min(per_column - 2, len(others)), replace=False)
        rows = sorted(fixed | {int(y) for y in extra})
        w = rng.dirichlet(np.ones(len(rows))) + 0.01
        W[rows, x] = w / w.sum()
    return W


def isometry_kraus(rng: np.random.Generator, d: int, n_kraus: int = 3) -> list[np.ndarray]:
    """Kraus operators of a random isometry C^d -> C^(n_kraus d)."""
    A = rng.normal(size=(n_kraus * d, d)) + 1j * rng.normal(size=(n_kraus * d, d))
    V, _ = np.linalg.qr(A)
    return [V[k * d:(k + 1) * d, :] for k in range(n_kraus)]


def second_eigenvalue(ops: list[np.ndarray]) -> float:
    """Modulus of the channel's second largest eigenvalue; below 1, every
    state converges to the unique fixed point."""
    S = sum(np.kron(K, K.conj()) for K in ops)
    return float(np.sort(np.abs(np.linalg.eigvals(S)))[-2])


def prob_pair(rng: np.random.Generator, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Interior pairs (entries bounded away from zero), pairs where p has
    zeros inside supp(q), and pairs where q has zeros under p's mass."""
    p = 0.9 * rng.dirichlet(5.0 * np.ones(n)) + 0.1 / n
    q = 0.9 * rng.dirichlet(5.0 * np.ones(n)) + 0.1 / n
    if kind != "interior":
        target = p if kind == "p-zeros" else q
        zeros = rng.choice(n, size=max(1, n // 4), replace=False)
        target[zeros] = 0.0
    return p / p.sum(), q / q.sum()


def density_matrix(rng: np.random.Generator, d: int, rank: int, basis=None) -> np.ndarray:
    """Random state of the given rank, supported on the first ``rank``
    columns of ``basis`` when one is given."""
    A = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    if basis is not None:
        A = basis[:, :rank] @ (basis[:, :rank].conj().T @ A)
    M = A @ A.conj().T
    M = 0.5 * (M + M.conj().T)
    return M / np.trace(M).real


def state_pair(rng: np.random.Generator, d: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Full-rank pairs, a rank-deficient rho, a rank-deficient sigma with rho
    not dominated, and a rank-deficient rho inside a rank-deficient sigma."""
    low = max(1, d // 2)
    if kind == "full":
        return density_matrix(rng, d, d), density_matrix(rng, d, d)
    if kind == "rho-deficient":
        return density_matrix(rng, d, low), density_matrix(rng, d, d)
    if kind == "sigma-deficient":
        return density_matrix(rng, d, d), density_matrix(rng, d, low)
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    sigma = density_matrix(rng, d, low, basis)
    rho = density_matrix(rng, d, 1, basis)
    return rho, sigma


PAIR_KINDS = ("interior", "interior", "p-zeros", "q-zeros")
STATE_KINDS = ("full", "rho-deficient", "sigma-deficient", "nested")
POOL = 8  # distinct seeded inputs per (workload, size), or report cycles


class Inputs:
    """The seeded inputs of one run, written under ``workdir`` where the CLI
    reads them from files."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, workdir: str):
        self.workload = workload
        self.sizes = sizes
        rng = np.random.default_rng(seed)
        self.files: list[tuple[str, dict]] = []
        # report cycle c reads one file per (generator, kind) of CYCLES
        self.cycles: list[list[tuple[str, dict, str, int]]] = []
        self.pairs: dict[int, list[tuple[np.ndarray, np.ndarray, str]]] = {}
        self.states: dict[int, list[tuple[np.ndarray, np.ndarray, str]]] = {}
        self.bregman: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        if workload in CYCLES:
            for c in range(POOL):
                cycle = []
                for name, kind in CYCLES[workload]:
                    path, meta = self._draw(rng, workdir, kind, len(self.files))
                    cycle.append((path, meta, name, int(rng.integers(0, 1 << 31))))
                self.cycles.append(cycle)
        else:
            for n in sizes.pair_dims:
                kinds = itertools.islice(itertools.cycle(PAIR_KINDS), POOL)
                self.pairs[n] = [(*prob_pair(rng, n, k), k) for k in kinds]
            for d in sizes.petz_dims:
                kinds = itertools.islice(itertools.cycle(STATE_KINDS), POOL)
                self.states[d] = [(*state_pair(rng, d, k), k) for k in kinds]
            for n in sizes.bregman_dims:
                pool = []
                for _ in range(POOL // 2):
                    x, y = prob_pair(rng, n, "interior")
                    A = rng.normal(size=(n, n))
                    pool.append((x, y, A @ A.T / n + np.eye(n)))
                self.bregman[n] = pool

    def _draw(self, rng, workdir: str, kind: str, i: int) -> tuple[str, dict]:
        """Draw one chain or channel of the given kind and write it."""
        if kind in ("bsc", "asym"):
            W, meta = binary_chain(rng, symmetric=kind == "bsc")
            return self._file(workdir, f"chain{i}.csv", meta, _write_matrix, W)
        if kind == "sparse":
            W = sparse_chain(rng, self.sizes.wide_n)
            return self._file(workdir, f"chain{i}.csv", {"kind": kind}, _write_matrix, W)
        d = self.sizes.quantum_d
        if kind == "depolarizing":
            # second eigenvalue 1 - lam; lam is drawn over (0, 1) less a
            # margin at each end, as p of the BSCs is
            lam = float(rng.uniform(0.05, 0.95))
            ops = list(divlab.depolarizing_channel(d, lam).kraus)
            meta = {"kind": kind, "lambda": lam}
        else:
            ops, meta = isometry_kraus(rng, d), {"kind": kind}
        meta["second_eigenvalue"] = second_eigenvalue(ops)
        return self._file(workdir, f"channel{i}.json", meta, _write_kraus, ops)

    def _file(self, workdir, name, meta, writer, obj) -> tuple[str, dict]:
        path = os.path.join(workdir, name)
        writer(path, obj)
        self.files.append((path, meta))
        return path, meta


# ---------------------------------------------------------------------------
# report ops


def _chain_op(path: str, meta: dict, g, cli_seed: int, profile_n: int) -> Op:
    argv = ["analyze-chain", "--matrix", path, "--generator", g.label,
            "--seed", str(cli_seed), "--profile-n", str(profile_n)]
    # KL on a symmetric BSC has the closed form (1-2p)^2; pearson_chi2 is
    # compared with the report's own exact eta_chi2
    exact = None
    if meta["kind"] == "bsc" and g.name == "kl":
        exact = (1.0 - 2.0 * meta["p"]) ** 2

    def check(result) -> list[str]:
        report, problems = _report_of(result)
        if report is None:
            return problems
        res = report["results"]
        con = res["contraction"]
        est = float(con["eta_f_estimate"]["value"])
        eta2 = float(con["eta_chi2"]["value"])
        _not_above(problems, "eta_f estimate", est, float(con["nonlinear_upper"]["value"]))
        if con["linear_upper"]["value"] is not None:
            _not_above(problems, "eta_f estimate", est, float(con["linear_upper"]["value"]))
        for pt in res.get("rate_profile", {}).get("points", []):
            if float(pt["eta_f_root"]) > float(pt["envelope"]) + BOUND_SLACK:
                problems.append(f"rate point n={pt['n']} outside its envelope")
        mix = res.get("mixing_time")
        if mix and mix["empirical_tv"] is not None and mix["empirical_tv"] > mix["tv_bound"]["value"]:
            problems.append("empirical TV mixing time above its bound")
        if meta["kind"] == "bsc":
            closed = (1.0 - 2.0 * meta["p"]) ** 2
            if abs(eta2 - closed) > CLOSED_FORM_TOL:
                problems.append(f"eta_chi2 {eta2!r} != (1-2p)^2 = {closed!r}")
            if g.name == "kl":
                _estimate_not_above(problems, "KL estimate vs (1-2p)^2", est, closed)
        if g.name == "pearson_chi2":
            _estimate_not_above(problems, "chi2 estimate vs exact eta_chi2", est, eta2)
        return problems

    def shortfall(report) -> float:
        con = report["results"]["contraction"]
        ref = exact if exact is not None else float(con["eta_chi2"]["value"])
        return (ref - float(con["eta_f_estimate"]["value"])) / ref

    has_exact = exact is not None or g.name == "pearson_chi2"
    return Op(f"analyze-chain {g.label} {os.path.basename(path)} {meta}",
              lambda: run_cli(argv), check, shortfall=shortfall if has_exact else None,
              kind=f"{g.name}/{meta['kind']}")


def _quantum_op(path: str, meta: dict, g, cli_seed: int) -> Op:
    argv = ["quantum-analyze", "--channel", path, "--generator", g.label,
            "--seed", str(cli_seed)]
    depol = meta["kind"] == "depolarizing"
    closed = (1.0 - meta["lambda"]) ** 2 if depol else None

    def check(result) -> list[str]:
        report, problems = _report_of(result)
        if report is None:
            return problems
        res = report["results"]
        con, mix = res.get("contraction"), res.get("mixing_time")
        if con is None or mix is None:
            if not res["structure"]["mixing"] and meta["second_eigenvalue"] < 1.0 - MIXING_GAP:
                return problems + [MixingProbe(
                    "mixing probe: channel with second eigenvalue "
                    f"{meta['second_eigenvalue']:.4f} reported as not mixing")]
            return problems + ["contraction or mixing section missing from the report"]
        est = float(con["eta_f_estimate"]["value"])
        for key in ("nonlinear_upper", "linear_upper"):
            if key in con and con[key]["value"] is not None:
                _not_above(problems, f"eta_f estimate vs {key}", est, float(con[key]["value"]))
        if mix["empirical_td"] is not None and mix["empirical_td"] > mix["td_bound"]["value"]:
            problems.append("empirical trace-distance mixing time above its bound")
        if depol:
            chi = float(mix["eta_chi2_estimate"])
            _estimate_not_above(problems, "Petz chi2 estimate vs (1-lambda)^2", chi, closed)
            if g.name == "pearson_chi2":
                _estimate_not_above(problems, "Petz chi2 eta_f estimate vs (1-lambda)^2",
                                    est, closed)
        return problems

    def shortfall(report) -> float | None:
        mix = report["results"].get("mixing_time")
        if mix is None:  # reported as not mixing: no estimate to compare
            return None
        return (closed - float(mix["eta_chi2_estimate"])) / closed

    return Op(f"quantum-analyze {g.label} {os.path.basename(path)} {meta}",
              lambda: run_cli(argv), check, shortfall=shortfall if depol else None,
              kind=f"{g.name}/{meta['kind']}")


# One cycle of a report workload: (generator, input kind) per op.  Every
# cycle of every run has this mix, so runs of any seed and length do the same
# kind of work; the seed draws only the chains, channels and sampling seeds,
# fresh for each of the POOL cycles.  Exact references: KL on a BSC has
# (1-2p)^2, pearson_chi2 the report's exact eta_chi2, and every report on a
# depolarizing channel (1-lambda)^2 for its Petz chi2 estimate.  The quantum
# pair costs about the same per report, so that a median over ops does not
# jump between two kinds' times when one report fails.
CYCLES = {
    "chain-binary": (("kl", "bsc"), ("pearson_chi2", "asym")),
    "chain-wide": (("pearson_chi2", "sparse"), ("kl", "sparse")),
    "quantum": (("kl", "isometry"), ("reverse_kl", "depolarizing")),
}


def _report_op(inputs: Inputs, path: str, meta: dict, g, cli_seed: int) -> Op:
    if inputs.workload == "quantum":
        return _quantum_op(path, meta, g, cli_seed)
    return _chain_op(path, meta, g, cli_seed, inputs.sizes.profile_n)


def report_cycle(inputs: Inputs, registry: list, c: int) -> list[Op]:
    """The ops of cycle ``c``."""
    by_name = {g.name: g for g in registry}
    return [_report_op(inputs, path, meta, by_name[name], cli_seed)
            for path, meta, name, cli_seed in inputs.cycles[c % POOL]]


# ---------------------------------------------------------------------------
# single-call ops


def _dominated(p: np.ndarray, q: np.ndarray) -> bool:
    return float(p[q <= 0.0].sum()) == 0.0


def _pair_ops(g, p, q, kind: str, n: int) -> list[Op]:
    tag = f"{g.label} |X|={n} {kind}"
    dominated = _dominated(p, q)

    def check_fdiv(value) -> list[str]:
        if math.isnan(value) or value < -CHECK_SLACK:
            return [f"f_divergence {value!r} is negative or NaN"]
        if kind == "interior" and not math.isfinite(value):
            return ["f_divergence infinite on a full-support pair"]
        return []

    def check_sandwich(out) -> list[str]:
        return [] if out[3] else [f"chi2 sandwich fails: {out[:3]}"]

    def check_reverse(out) -> list[str]:
        value = divlab.f_divergence(g, p, q)
        if value <= out[0] + CHECK_SLACK and value <= out[1] + CHECK_SLACK:
            return []
        return [f"reverse Pinsker fails: D_f={value!r} bounds={out}"]

    def check_pinsker(out) -> list[str]:
        return [] if out[2] else [f"Pinsker fails: {out}"]

    def check_integral(value) -> list[str]:
        exact = divlab.f_divergence(g, p, q)
        if abs(value - exact) <= QUADRATURE_TOL:
            return []
        return [f"quadrature {value!r} differs from D_f {exact!r} by {abs(value - exact):.3g}"]

    integrable = dominated and (g.f2_at_zero_finite or bool(np.all(p[q > 0.0] > 0.0)))
    return [
        Op(f"f_divergence {tag}", lambda: divlab.f_divergence(g, p, q), check_fdiv),
        Op(f"chi2_sandwich {tag}", lambda: divlab.chi2_sandwich(g, p, q), check_sandwich,
           expect=None if dominated else ValueError),
        Op(f"reverse_pinsker {tag}", lambda: divlab.reverse_pinsker(g, p, q), check_reverse,
           expect=None if dominated else ValueError),
        Op(f"check_pinsker {tag}", lambda: divlab.check_pinsker(g, p, q), check_pinsker),
        Op(f"integral_representation {tag}",
           lambda: divlab.integral_representation(g, p, q), check_integral,
           expect=None if integrable else ValueError),
    ]


def _divergence_cli_op(g, p, q, n: int) -> Op:
    argv = ["divergence", "--g", g.label,
            "--p", ",".join(repr(float(v)) for v in p),
            "--q", ",".join(repr(float(v)) for v in q)]

    def check(result) -> list[str]:
        report, problems = _report_of(result)
        if report is None:
            return problems
        got = float(report["results"]["divergence"]["value"])
        want = divlab.f_divergence(g, p, q)
        if not (got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)):
            problems.append(f"CLI value {got!r} != library value {want!r}")
        return problems

    return Op(f"divergence-cli {g.label} |X|={n}", lambda: run_cli(argv), check)


def _petz_op(g, rho, sigma, kind: str, d: int) -> Op:
    def check(rep) -> list[str]:
        bad = [c.bound_id for c in rep.checks if c.applicable and not c.holds]
        return [f"Petz bounds fail: {bad}"] if bad else []

    return Op(f"petz_bounds_report {g.label} d={d} {kind}",
              lambda: divlab.petz_bounds_report(g, rho, sigma), check)


def _bregman_op(fd, x, y, n: int) -> Op:
    def check(out) -> list[str]:
        return [] if out.holds else [f"Bregman sandwich fails: {out}"]

    return Op(f"bregman_sandwich {fd.name} |X|={n}",
              lambda: divlab.bregman_sandwich(fd, x, y), check)


def verify_constants_op(grid: int, n_generators: int) -> Op:
    argv = ["verify-constants", "--grid", str(grid)]

    def check(result) -> list[str]:
        rc, out, err = result
        problems = [] if rc == 0 else [f"exit code {rc}: {err.strip()[:200]}"]
        lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        certs = [line for line in lines if line.get("bound_id") == "pinsker-constant"]
        if len(certs) != n_generators:
            problems.append(f"{len(certs)} certificates, expected {n_generators}")
        problems += [f"{c['generator']}: {c['verdict']}" for c in certs
                     if c["verdict"] != "certified"]
        return problems

    return Op(f"verify-constants --grid {grid}", lambda: run_cli(argv), check)


def bounds_round(inputs: Inputs, registry: list, round_index: int) -> list[Op]:
    """One round of single-call ops over every generator and size."""
    sizes = inputs.sizes
    ops: list[Op] = []
    for n, pool in inputs.pairs.items():
        k = round_index * len(registry)
        for g in registry:
            p, q, kind = pool[k % len(pool)]
            ops += _pair_ops(g, p, q, kind, n)
            k += 1
        p, q, _ = pool[round_index % 2]  # interior pairs only in the CLI
        ops.append(_divergence_cli_op(registry[round_index % len(registry)], p, q, n))
    for d, pool in inputs.states.items():
        for j, g in enumerate(registry):
            rho, sigma, kind = pool[(round_index * len(registry) + j) % len(pool)]
            ops.append(_petz_op(g, rho, sigma, kind, d))
    for n in sizes.bregman_dims:
        x, y, Q = inputs.bregman[n][round_index % len(inputs.bregman[n])]
        ops.append(_bregman_op(divlab.neg_entropy_fn(n), x, y, n))
        ops.append(_bregman_op(divlab.quadratic_fn(Q), x, y, n))
    return ops


def cycles(inputs: Inputs, registry: list) -> Iterator[list[Op]]:
    """The endless cycles of a run: report cycles over the input pool, or
    one ``verify-constants`` followed by rounds of single calls."""
    if inputs.workload != "bounds":
        for c in itertools.count():
            yield report_cycle(inputs, registry, c)
    else:
        yield [verify_constants_op(inputs.sizes.verify_grid, len(registry))]
        for r in itertools.count():
            yield bounds_round(inputs, registry, r)


def warmup_op(inputs: Inputs, registry: list, workdir: str) -> Op:
    """The untimed op of set-up: the first single call (the certificate run
    stays the first timed op), the first report, or for ``quantum`` a KL
    report on depolarizing(0.5), because a seeded channel may be reported
    as not mixing, which skips the estimates the warm-up is there to run."""
    if inputs.workload == "bounds":
        return bounds_round(inputs, registry, 0)[0]
    if inputs.workload != "quantum":
        return report_cycle(inputs, registry, 0)[0]
    lam = 0.5
    path = os.path.join(workdir, "warmup.json")
    ops = list(divlab.depolarizing_channel(inputs.sizes.quantum_d, lam).kraus)
    _write_kraus(path, ops)
    g = {g.name: g for g in registry}["kl"]
    meta = {"kind": "depolarizing", "lambda": lam, "second_eigenvalue": second_eigenvalue(ops)}
    return _quantum_op(path, meta, g, 0)


def trace_ops(inputs: Inputs, registry: list) -> list[Op]:
    """The fixed op list of a traced run: two report cycles, or the
    certificate run and one round of single calls."""
    it = cycles(inputs, registry)
    return next(it) + next(it)
