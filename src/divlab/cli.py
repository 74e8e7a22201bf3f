"""Batch command-line interface.

Subcommands: verify-constants, divergence, analyze-chain, mixing-time,
quantum-analyze.  Every run emits a JSON report on stdout: verify-constants
as JSON lines (header line plus one certificate per generator), the rest as a
single JSON document.  Exit codes: 0 on success, 2 when an asserted
inequality fails (the report is still emitted), 1 on input errors.

Numbers are printed with 17 significant digits; infinities appear as the
string "inf".  The ``divergence`` value is reported in nats unless ``--bits``
is given, which applies the 1/ln(2) conversion at presentation time only.
The environment variable DIVLAB_SEED overrides ``--seed``; verify-constants,
divergence and mixing-time sample nothing and take no ``--seed``, but echo
DIVLAB_SEED (or 0) in the ``seed`` field like every report.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .contraction import SampleBudget, _ChainContext, _check_delta, _mixing_time
from .divergence import (
    SUPPORT_EPSILON, _as_count, _chi_squared, _f_divergence, _total_variation, _vectors,
)
from .generators import default_registry, from_spec
from .markov import _channel, _stationary_of
from .pinsker import _certify
from .quantum import (
    KrausChannel,
    QuantumBudget,
    _channel_structure,
    _eta_estimate,
    _petz_eta_chi2,
    _petz_mixing,
    _petz_upper,
)

SCHEMA_VERSION = "1"
LN2 = math.log(2.0)


class InputError(Exception):
    """Malformed files, dimension mismatches, non-stochastic matrices."""


# ---------------------------------------------------------------------------
# JSON emission: 17 significant digits, "inf" for infinities, deterministic


def _dumps(obj, indent: int = 0) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return f"{v:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return _dumps([obj.real, obj.imag], indent)
    if isinstance(obj, np.ndarray):
        return _dumps(obj.tolist(), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_dumps(v, indent + 2)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_dumps(v, indent + 2) for v in obj]
        # a rendering without a newline is the same at every indent; the
        # one-line form renders the others again at this list's own indent
        size = 2 * (len(items) - 1) + sum(len(s) for s in items if "\n" not in s)
        flat = []
        for v, s in zip(obj, items):
            if "\n" in s and size <= 100:
                s = _dumps(v, indent)
                size += len(s)
            flat.append(s)
        if size <= 100:
            return "[" + ", ".join(flat) + "]"
        inner = ",\n".join(f"{pad}  {s}" for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    return json.dumps(str(obj))


def dumps_report(obj) -> str:
    return _dumps(obj)


# ---------------------------------------------------------------------------
# parsing


def _parse_complex_matrix(obj) -> np.ndarray:
    """Accept {"re": [[..]], "im": [[..]]} or nested [re, im] entry pairs or
    a plain real matrix."""
    if isinstance(obj, dict):
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
        if re.shape != im.shape:
            raise InputError("re and im blocks must have equal shapes")
        return re + 1j * im
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    if arr.ndim == 2:
        return arr.astype(complex)
    raise InputError("matrix entries must be scalars or [re, im] pairs")


def parse_matrix(path: str) -> np.ndarray:
    """Square channel matrix from CSV (row-major, '#' comments, optional
    header) or JSON {"matrix": [[...]]}; validated column-stochastic at
    1e-8, then each column whose sum is off by more than rounding
    (SUPPORT_EPSILON) divided by its sum, so that the library's 1e-10 check
    holds for W and its powers while columns that already sum to one keep
    their bits."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    rows = None
    if path.endswith(".json") or text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise InputError(f"{path}: JSON channel files need a 'matrix' key")
        rows = obj["matrix"]
    else:
        rows = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                if not rows:
                    continue  # header row
                raise InputError(f"{path}: non-numeric row {line!r}")
    try:
        W = _channel(rows, square=True, column_sum_tol=1e-8)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    sums = W.sum(axis=0)
    return np.where(np.abs(sums - 1.0) > SUPPORT_EPSILON, W / sums, W)


def parse_kraus(path: str) -> KrausChannel:
    """Square Kraus channel from JSON {"kraus": [K, ...]}."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(obj, dict) or "kraus" not in obj:
        raise InputError(f"{path}: JSON Kraus files need a 'kraus' key")
    try:
        channel = KrausChannel(
            kraus=tuple(_parse_complex_matrix(K) for K in obj["kraus"])
        )
        channel._require_square()
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    return channel


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(c) for c in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad vector {text!r}: {exc}") from exc


def _digest(args: argparse.Namespace, files: list[str]) -> str:
    h = hashlib.sha256()
    for key in sorted(vars(args)):
        if key in ("func",):
            continue
        h.update(f"{key}={vars(args)[key]!r};".encode())
    for path in files:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            pass
    return h.hexdigest()


def _resolve_seed(args: argparse.Namespace) -> int:
    env = os.environ.get("DIVLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"DIVLAB_SEED must be an integer, got {env!r}") from exc
    return getattr(args, "seed", 0)


def _header(args, files, seed) -> dict:
    """The identity fields that open every report."""
    return {
        "schema_version": SCHEMA_VERSION,
        "divlab_version": __version__,
        "command": [args.command] + getattr(args, "raw_args", []),
        "inputs_digest": _digest(args, files),
        "seed": seed,
    }


def _envelope(args, files, seed, results, warnings_list):
    return {
        **_header(args, files, seed),
        "units": "bits" if getattr(args, "bits", False) else "nats",
        "results": results,
        "warnings": warnings_list,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify_constants(args) -> int:
    seed = _resolve_seed(args)
    grid = _as_count(args.grid, "grid_n", 16)
    header = {**_header(args, [], seed), "kind": "header"}
    print(dumps_report(header).replace("\n", " "))
    all_ok = True
    for g in default_registry():
        cert = _certify(g, g.pinsker_lambda, grid, g.pinsker_constant)
        ok = cert.certified
        all_ok &= ok
        line = {
            "bound_id": "pinsker-constant",
            "generator": cert.generator,
            "lambda": cert.lam,
            "claimed": cert.claimed_L,
            "grid_min": cert.grid_min,
            "refined_min": cert.refined_min,
            "argmin": list(cert.refined_argmin),
            "verdict": cert.verdict,
            "tight": cert.tight,
        }
        print(dumps_report(line).replace("\n", " "))
    return 0 if all_ok else 2


def _cmd_divergence(args) -> int:
    seed = _resolve_seed(args)
    g = from_spec(args.g)
    p, q = _vectors(_parse_vector(args.p), _parse_vector(args.q))
    warnings_list = []
    if float(p[q <= 0.0].sum()) > 0.0:
        warnings_list.append(
            "p is not absolutely continuous with respect to q; value uses the "
            "f'(inf) convention"
        )
    value = _f_divergence(g, p, q)
    if args.bits:
        value /= LN2
    results = {
        "generator": g.label,
        "divergence": {"bound_id": "f-divergence-value", "value": value},
        "total_variation": _total_variation(p, q),
        "chi_squared": _chi_squared(p, q),
    }
    print(dumps_report(_envelope(args, [], seed, results, warnings_list)))
    return 0


def _mixing_section(mix) -> dict:
    """The classical mixing-time bounds and empirical times of a report."""
    return {
        "tv_bound": {"bound_id": "chi2-mixing-time-tv", "value": mix.tv_bound},
        "f_bound": {"bound_id": "chi2-mixing-time-f", "value": mix.f_bound},
        "empirical_tv": mix.empirical_tv,
        "empirical_f": mix.empirical_f,
    }


def _add_upper_bounds(section: dict, prefix: str, bounds, est: float, exceeds: str,
                      violations: list[str]) -> None:
    """Put the (nonlinear, linear) upper bounds into a contraction section
    under the bound ids ``prefix``-kind-upper, and a violation worded by
    ``exceeds`` for each bound that the estimate est exceeds."""
    for kind, value in zip(("nonlinear", "linear"), bounds):
        section[f"{kind}_upper"] = {"bound_id": f"{prefix}-{kind}-upper", "value": value}
        if value is not None and est > value + 1e-9:
            violations.append(exceeds.format(kind))


def _cmd_analyze_chain(args) -> int:
    seed = _resolve_seed(args)
    W = parse_matrix(args.matrix)
    g = from_spec(args.generator)
    chain = _ChainContext(W, g, SampleBudget(seed=seed), args.profile_n)
    warnings_list: list[str] = []
    violations: list[str] = []

    info = chain.info
    results: dict = {"structure": dataclasses.asdict(info)}
    if info.stationary is None:  # raises the solver's input error
        _stationary_of(W)
    pi = info.stationary
    eta2 = chain.eta2
    est, witness = chain.estimate
    bounds = chain.upper_bounds()
    results["contraction"] = {
        "reference": pi,
        "eta_chi2": {"bound_id": "eta-chi2-second-singular-value", "value": eta2},
        "eta_f_estimate": {
            "bound_id": "eta-f-sampled-lower-estimate",
            "value": est,
            "witness": witness,
        },
    }
    if bounds is None:
        warnings_list.append(
            "generator carries no certified Pinsker constant; upper bounds skipped"
        )
    else:
        _add_upper_bounds(results["contraction"], "eta-f", bounds, est,
                          "eta_f estimate exceeds {} upper bound", violations)

    try:
        mix = chain.mixing(args.delta, g)
        results["mixing_time"] = _mixing_section(mix)
        if not mix.empirical_within_bound:
            violations.append("empirical mixing time exceeds its bound")
    except ValueError as exc:
        warnings_list.append(f"mixing times unavailable: {exc}")

    try:
        profile = chain.profile()
        results["rate_profile"] = {
            "bound_id": "contraction-rate-vs-eta-chi2",
            "eta_chi2": eta2,
            "points": [
                {"n": pt.n, "eta_f_root": pt.eta_f_root, "envelope": pt.envelope}
                for pt in profile
            ],
        }
        if not all(pt.within_envelope for pt in profile):
            violations.append("rate profile exceeds its envelope")
    except ValueError as exc:
        warnings_list.append(f"rate profile unavailable: {exc}")

    report = _envelope(args, [args.matrix], seed, results, warnings_list)
    report["violations"] = violations
    print(dumps_report(report))
    return 2 if violations else 0


def _cmd_mixing_time(args) -> int:
    seed = _resolve_seed(args)
    W = parse_matrix(args.matrix)
    g = from_spec(args.generator) if args.generator else None
    mix = _mixing_time(W, args.delta, g)
    results = {
        "eta_chi2": {"bound_id": "eta-chi2-second-singular-value", "value": mix.eta_chi2},
        "pi_min": mix.pi_min,
        **_mixing_section(mix),
    }
    violations = [] if mix.empirical_within_bound else ["empirical mixing time exceeds bound"]
    report = _envelope(args, [args.matrix], seed, results, [])
    report["violations"] = violations
    print(dumps_report(report))
    return 2 if violations else 0


def _cmd_quantum_analyze(args) -> int:
    seed = _resolve_seed(args)
    channel = parse_kraus(args.channel)
    g = from_spec(args.generator)
    budget = QuantumBudget(seed=seed)
    warnings_list: list[str] = []
    violations: list[str] = []

    info = _channel_structure(channel)
    results: dict = {"structure": dataclasses.asdict(info)}
    if not info.mixing:
        warnings_list.append("channel is not mixing; contraction section skipped")
    else:
        pi = info.fixed_point
        est, _ = _eta_estimate(channel, pi, g, budget)
        # the bounds and the mixing times share one exact Petz eta_chi2
        eta = _petz_eta_chi2(channel, pi)
        results["contraction"] = {
            "eta_f_estimate": {
                "bound_id": "petz-eta-f-sampled-lower-estimate",
                "value": est,
                "estimate_based": True,
            },
        }
        if g.operator_convex and g.pinsker_constant:
            bounds = _petz_upper(g, channel, pi, g.pinsker_constant, eta)
            _add_upper_bounds(results["contraction"], "petz-eta-f", bounds, est,
                              "quantum eta_f estimate exceeds {} bound", violations)
        else:
            warnings_list.append(
                "generator is not flagged operator convex; upper bounds skipped"
            )
        try:
            _check_delta(args.delta)
            qmix = _petz_mixing(channel, args.delta, g, pi, eta)
            results["mixing_time"] = {
                "td_bound": {"bound_id": "petz-chi2-mixing-time-td", "value": qmix.td_bound},
                "f_bound": {"bound_id": "petz-chi2-mixing-time-f", "value": qmix.f_bound},
                "empirical_td": qmix.empirical_td,
                "empirical_f": qmix.empirical_f,
                "eta_chi2_estimate": qmix.eta_chi2,
            }
            if qmix.empirical_td is not None and qmix.empirical_td > qmix.td_bound:
                violations.append("empirical trace-distance mixing time exceeds bound")
        except ValueError as exc:
            warnings_list.append(f"quantum mixing times unavailable: {exc}")

    report = _envelope(args, [args.channel], seed, results, warnings_list)
    report["violations"] = violations
    print(dumps_report(report))
    return 2 if violations else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divlab",
        description="f-divergence inequalities, contraction coefficients, and "
        "mixing-time bounds over finite alphabets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("verify-constants", help="certify all Pinsker constants")
    s.add_argument("--grid", type=int, default=512)
    s.set_defaults(func=_cmd_verify_constants)

    s = sub.add_parser("divergence", help="evaluate one f-divergence")
    s.add_argument("--g", required=True, help="generator spec, e.g. hellinger:alpha=1.5")
    s.add_argument("--p", required=True, help="comma-separated vector")
    s.add_argument("--q", required=True, help="comma-separated vector")
    s.add_argument("--bits", action="store_true")
    s.set_defaults(func=_cmd_divergence)

    s = sub.add_parser("analyze-chain", help="full classical chain report")
    s.add_argument("--matrix", required=True)
    s.add_argument("--generator", required=True)
    s.add_argument("--delta", type=float, default=0.01)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--profile-n", type=int, default=6)
    s.set_defaults(func=_cmd_analyze_chain)

    s = sub.add_parser("mixing-time", help="mixing-time bounds only")
    s.add_argument("--matrix", required=True)
    s.add_argument("--delta", type=float, default=0.01)
    s.add_argument("--generator", default=None)
    s.set_defaults(func=_cmd_mixing_time)

    s = sub.add_parser("quantum-analyze", help="Petz-divergence channel report")
    s.add_argument("--channel", required=True, help="JSON Kraus file")
    s.add_argument("--generator", required=True)
    s.add_argument("--delta", type=float, default=0.01)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_quantum_analyze)
    return parser


# the parser holds no input, so one serves every run of the process
_PARSER = build_parser()


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _PARSER.parse_args(argv)
        args.raw_args = argv[1:]
        return args.func(args)
    except (InputError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
