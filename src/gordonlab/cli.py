"""Reproducible experiment runner.

Every library operation sits behind a subcommand that emits a versioned
header (schema, code version, config echo, seed) followed by rows, as CSV
(``#``-prefixed header lines, then RFC-4180 rows) or as one JSON object with
the same rows.  A config file plus the code version determines every output
byte.  The echo holds every option the subcommand defines except the
execution-only ones (format, output path, and the seed, which has its own
line), so re-runs merge byte-identically.

Exit codes: 0 success, 1 runtime/domain error, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .arithmetic import (
    ALPHA_PRESETS,
    SCALE,
    FixedPointFrac,
    cf_expand,
    classify_badly_approximable,
)
SCHEMA_VERSION = 1

# construct-q verifies by stepping k_max + q states (about 150 bytes each)
_VERIFY_STEP_BUDGET = 1_000_000


class ConfigError(ValueError):
    """Invalid command-line or config-file parameter (exit code 2)."""


# ---------------------------------------------------------------------------
# parameter parsing
# ---------------------------------------------------------------------------


def parse_alpha(text: str) -> FixedPointFrac:
    """Preset name, or an exact decimal/rational literal ('0.05', '3/10')."""
    key = text.strip().lower()
    if key in ALPHA_PRESETS:
        return ALPHA_PRESETS[key]
    try:
        frac = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(
            f"alpha: {text!r} is not a preset ({', '.join(sorted(ALPHA_PRESETS))}) "
            "or a decimal/rational literal"
        ) from exc
    return FixedPointFrac.from_fraction(frac.numerator, frac.denominator)


def _finite_float(text: str) -> float:
    """argparse type for real-valued flags: nan and inf are bad input (exit 2)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--flag -1e-3`` as ``--flag=-1e-3``.

    argparse takes a dash-led token for an option unless it looks like -5 or
    -.5, so a negative number in exponent form (or -inf) would lose its flag.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if token.startswith("-") and prev.startswith("--") and prev != "--" and "=" not in prev:
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={token}"
                continue
        out.append(token)
    return out


def _parse_list(text: str, field: str, parse, kind: str = "") -> tuple:
    """The comma-separated items of text, each through parse.

    A ValueError from parse becomes a config error that names kind; a
    ConfigError (parse_alpha's) keeps its own message.
    """
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ConfigError(f"{field}: empty list")
    try:
        return tuple(parse(p) for p in parts)
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"{field}: {text!r} is not a comma-separated {kind} list") from exc


def _number(text: str) -> float:
    return float(Fraction(text.strip()))


def build_system(args: argparse.Namespace):
    from .dynamics import Iet, Permutation, Shift, SkewProduct, SkewShift

    name = args.system
    if name in ("shift", "skewshift", "skewproduct"):
        if args.alpha is None:
            raise ConfigError(f"alpha: required for {name}")
        alphas = _parse_list(args.alpha, "alpha", parse_alpha)
        if name == "shift":
            return Shift(alphas)
        if len(alphas) != 1:
            raise ConfigError(f"alpha: {name} takes a single frequency")
        if name == "skewshift":
            return SkewShift(alphas[0])
        if args.dim is None:
            raise ConfigError("dim: required for skewproduct")
        return SkewProduct(args.dim, alphas[0])
    if name == "iet":
        if not args.lengths or not args.perm:
            raise ConfigError("lengths/perm: required for iet")
        lengths = _parse_list(args.lengths, "lengths", _number, "number")
        images = _parse_list(args.perm, "perm", int, "integer")
        try:
            return Iet(lengths, Permutation(images))
        except ValueError as exc:
            raise ConfigError(f"iet: {exc}") from exc
    raise ConfigError(f"system: unknown variant {name!r}")


def build_omega(args: argparse.Namespace, system):
    from .dynamics import Iet, OutOfDomainError, TorusPoint, _iet_twin, system_dim

    dim = system_dim(system)
    if isinstance(system, Iet):
        if args.omega is None:
            return 0.0
        try:
            x = _number(args.omega)
            _iet_twin(system, x).enter(x)
        except OutOfDomainError as exc:
            raise ConfigError("omega: outside the interval") from exc
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"omega: {args.omega!r} is not a number") from exc
        return x
    if args.omega is None:
        return TorusPoint((FixedPointFrac(0),) * dim)
    coords = _parse_list(args.omega, "omega", parse_alpha)
    if len(coords) != dim:
        raise ConfigError(f"omega: expected {dim} coordinates, got {len(coords)}")
    return TorusPoint(coords)


def build_function(args: argparse.Namespace):
    from .potentials import BourgainQuadratic, Cosine, PiecewiseConstant

    name = getattr(args, "function", "cosine")
    if name == "cosine":
        freq = _parse_list(args.freq, "freq", int, "integer") if args.freq else (1,)
        phase = float(args.phase) if args.phase is not None else 0.0
        return Cosine(frequency=freq, phase=phase)
    if name == "bourgain":
        return BourgainQuadratic()
    if name == "coding":
        if not args.breakpoints or not args.levels:
            raise ConfigError("breakpoints/levels: required for coding")
        breaks = _parse_list(args.breakpoints, "breakpoints", _number, "number")
        levels = _parse_list(args.levels, "levels", _number, "number")
        try:
            return PiecewiseConstant(breaks, levels)
        except ValueError as exc:
            raise ConfigError(f"coding: {exc}") from exc
    raise ConfigError(f"function: unknown variant {name!r}")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _render(value) -> str:
    if value is None:
        return ""  # an empty cell
    if isinstance(value, float):
        # repr of the plain float: shortest round-trip digits, and numpy
        # scalars (float subclasses) would otherwise print their type name
        return repr(float(value))
    return str(value)


def emit(
    args: argparse.Namespace,
    schema: str,
    config: dict,
    columns: list[str],
    rows: list[tuple],
    seed: int | None = None,
) -> None:
    """Write the header block and rows in the selected format."""
    # a non-finite float cell (an overflowed product, say) fails before any output
    for n, row in enumerate(rows, start=1):
        for column, value in zip(columns, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"non-finite {column} in row {n}: {value}")
    header = {
        "schema": f"{schema}/v{SCHEMA_VERSION}",
        "version": f"gordonlab {__version__}",
        "config": config,
    }
    if seed is not None:
        header["seed"] = seed
    fmt = args.format
    if fmt == "json":
        payload = dict(header)
        payload["columns"] = columns
        payload["rows"] = [[_render(v) for v in row] for row in rows]
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# schema: {header['schema']}\n")
        buf.write(f"# version: {header['version']}\n")
        buf.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        if seed is not None:
            buf.write(f"# seed: {seed}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_render(v) for v in row])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the least value of each count option; one below it is bad input (exit 2)
_LEAST = {"qmax": 1, "samples": 1, "max_base_q": 1, "depth": 0, "dim": 1, "q": 1, "sites": 1}


def _check_counts(args: argparse.Namespace) -> None:
    for field, least in _LEAST.items():
        value = getattr(args, field, None)
        if value is not None and value < least:
            raise ConfigError(f"{field.replace('_', '-')}: must be >= {least}")


# run-only options (the seed has its own header line) and the parser's names
_NOT_ECHOED = frozenset({"format", "output", "seed", "command", "handler"})


def _config_echo(args: argparse.Namespace, computed: dict) -> dict:
    """Every option the subcommand defines, as the raw strings given (None
    dropped), then the values the run computed."""
    out = {}
    for field, value in vars(args).items():
        if value is not None and field not in _NOT_ECHOED:
            out[field] = value if isinstance(value, (int, float, str)) else str(value)
    for field, value in computed.items():
        out[field] = _render(value) if isinstance(value, float) else value
    return out


# ---------------------------------------------------------------------------
# subcommands: each returns (columns, rows, computed values for the echo)
# ---------------------------------------------------------------------------


def cmd_cf(args) -> tuple:
    alpha = parse_alpha(args.alpha)
    cf = cf_expand(alpha, args.depth)
    rows = []
    for k, (a_k, (p, q)) in enumerate(zip(cf.partial_quotients, cf.convergents)):
        rows.append((k, a_k, p, q))
    return ["k", "a_k", "p_k", "q_k"], rows, {"exhausted_at": cf.exhausted_at}


def cmd_classify(args) -> tuple:
    alpha = parse_alpha(args.alpha)
    try:
        c = Fraction(args.c)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"c: {args.c!r} is not a number") from exc
    verdict = classify_badly_approximable(alpha, c, args.qmax)
    row = (verdict.verdict, verdict.witness_q, verdict.witness_dist)
    return ["verdict", "witness_q", "witness_dist"], [row], {}


def cmd_orbit(args) -> tuple:
    from .dynamics import Iet, raw_orbit, raw_state, system_dim

    system = build_system(args)
    omega = build_omega(args, system)
    if args.nmin > args.nmax:
        raise ConfigError("nmin: must be <= nmax")
    states, _, out = raw_orbit(system, raw_state(system, omega), args.nmin, args.nmax)
    sites = range(args.nmin, args.nmax + 1)
    if isinstance(system, Iet):
        rows = list(zip(sites, map(out, states)))
    else:  # c / SCALE is the float FixedPointFrac(c).to_float() gives
        rows = [(n, *(c / SCALE for c in state)) for n, state in zip(sites, states)]
    dim = system_dim(system)
    columns = ["n", "x"] if dim == 1 else ["n"] + [f"w{i + 1}" for i in range(dim)]
    return columns, rows, {}


def cmd_repeat(args) -> tuple:
    from .repetition import RepetitionNotFound, find_repetition_time

    system = build_system(args)
    omega = build_omega(args, system)
    result = find_repetition_time(system, omega, args.eps, args.r, args.qmax)
    columns = ["status", "q", "k_max", "best_q", "max_dist"]
    if isinstance(result, RepetitionNotFound):
        row = ("not_found", None, None, result.best_q, result.best_dist)
        return columns, [row], {}
    return columns, [("found", result.q, result.k_max, result.q, result.max_dist)], {}


def cmd_construct_q(args) -> tuple:
    from .dynamics import SkewShift
    from .repetition import (
        ConstructiveNotAvailable,
        skewshift_constructive_q,
        verify_certificate_against_definition,
    )

    alpha = parse_alpha(args.alpha)
    omega1 = parse_alpha(args.omega1) if args.omega1 else FixedPointFrac(0)
    cf = cf_expand(alpha, 64)
    rep = skewshift_constructive_q(
        alpha, omega1, args.eps, cf, r=args.r, max_base_q=args.max_base_q
    )
    columns = ["status", "q", "m", "base_q", "epsilon_rep", "verified"]
    if isinstance(rep, ConstructiveNotAvailable):
        return columns, [("not_available", None, None, None, None, 0)], {"reason": rep.reason}
    steps = rep.certificate.k_max + rep.q
    if steps > _VERIFY_STEP_BUDGET:
        raise ValueError(
            f"verifying q={rep.q} would step {steps} states, over the budget of "
            f"{_VERIFY_STEP_BUDGET}; pass --max-base-q"
        )
    verified = verify_certificate_against_definition(rep.certificate, SkewShift(alpha))
    row = ("found", rep.q, rep.m, rep.base_q, rep.reported_epsilon, int(verified))
    return columns, [row], {}


def cmd_prp_measure(args) -> tuple:
    from .repetition import estimate_prp_fraction

    system = build_system(args)
    est = estimate_prp_fraction(
        system,
        args.eps,
        args.r,
        args.qmax,
        args.samples,
        seed=args.seed,
    )
    row = (
        est.n_samples,
        est.n_hits,
        est.fraction,
        est.wilson_ci[0],
        est.wilson_ci[1],
    )
    return ["n_samples", "n_hits", "fraction", "wilson_lo", "wilson_hi"], [row], {}


def cmd_veech(args) -> tuple:
    from .dynamics import Iet
    from .repetition import TowerNotFound, veech_tower_search

    system = build_system(args)
    if not isinstance(system, Iet):
        raise ConfigError("system: veech requires --system iet")
    tower = veech_tower_search(system, args.eps, args.qmax)
    columns = ["status", "q", "interval_lo", "interval_len", "coverage", "return_overlap"]
    if isinstance(tower, TowerNotFound):
        row = ("not_found", None, None, None, tower.best_coverage, tower.best_overlap_fraction)
        return columns, [row], {}
    lo, hi = tower.interval
    row = ("found", tower.q, float(lo), float(hi - lo), tower.coverage, tower.return_overlap)
    return columns, [row], {}


def cmd_gordon(args) -> tuple:
    from .potentials import DimensionMismatchError, gordon_profile

    system = build_system(args)
    omega = build_omega(args, system)
    f = build_function(args)
    q_list = _parse_list(args.q_list, "q-list", int, "integer")
    c_list = _parse_list(args.c_list, "c-list", _number, "number") if args.c_list else (2.0,)
    try:
        profile = gordon_profile(system, f, args.lam, omega, q_list, c_list)
    except DimensionMismatchError:
        raise  # a domain failure of system and function, not of the lists
    except ValueError as exc:
        raise ConfigError(f"q-list/c-list: {exc}") from exc
    rows = [(q, g) for q, g in profile.entries]
    return ["q", "gamma"], rows, {"verdict": profile.verdict, "c_max": profile.c_max}


def cmd_transfer(args) -> tuple:
    from .potentials import _gamma, _orbit_samples
    from .spectral import _start_vector, _three_block

    system = build_system(args)
    omega = build_omega(args, system)
    f = build_function(args)
    q = args.q
    # gordon_three_block_check's kernels, fed plain samples over [1-q, 2q]:
    # no PotentialWindow, so no numpy
    base = _orbit_samples(system, f, omega, 1 - q, 2 * q)
    u0 = _parse_list(args.u0, "u0", _number, "number") if args.u0 else (1.0, 0.0)
    if len(u0) != 2:
        raise ConfigError("u0: expected two components")
    u = _start_vector(u0)
    lam = float(args.lam)
    values = [lam * v for v in base[q : 2 * q]]
    report = _three_block(values, args.energy, u, _gamma(base, q, lam))
    columns = [
        "q",
        "energy",
        "norm_plus",
        "norm_plus2",
        "norm_minus",
        "min_ratio",
        "gamma",
        "det_drift",
    ]
    row = (
        report.q,
        report.energy,
        report.norm_plus,
        report.norm_plus2,
        report.norm_minus,
        report.min_ratio,
        report.gamma,
        report.det_drift,
    )
    return columns, [row], {}


def cmd_spectrum(args) -> tuple:
    from .potentials import sample_potential
    from .spectral import localization_diagnostics, truncated_spectrum

    system = build_system(args)
    omega = build_omega(args, system)
    f = build_function(args)
    window = sample_potential(system, f, args.lam, omega, 1, args.sites)
    report = truncated_spectrum(window, args.sites, report_vectors=args.vectors)
    if args.vectors:
        summary = localization_diagnostics(report)
        rows = [
            (k, float(e), float(i), float(m))
            for k, (e, i, m) in enumerate(
                zip(report.eigenvalues, report.ipr, report.edge_mass)
            )
        ]
        computed = {
            "median_ipr": summary.median_ipr,
            "max_edge_mass": summary.max_edge_mass,
        }
        return ["k", "energy", "ipr", "edge_mass"], rows, computed
    return ["k", "energy"], [(k, float(e)) for k, e in enumerate(report.eigenvalues)], {}


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", default="shift", choices=["shift", "skewshift", "skewproduct", "iet"])
    p.add_argument("--alpha", help="preset name, decimal, or p/q (comma-separated for multi-dim shifts)")
    p.add_argument("--dim", type=int, help="dimension (skewproduct)")
    p.add_argument("--lengths", help="comma-separated IET lengths")
    p.add_argument("--perm", help="comma-separated IET permutation images (1-based)")


def _add_function_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--function", default="cosine", choices=["cosine", "bourgain", "coding"])
    p.add_argument("--freq", help="comma-separated integer frequency vector (cosine)")
    p.add_argument("--phase", type=_finite_float, help="phase offset in turns (cosine)")
    p.add_argument("--breakpoints", help="comma-separated breakpoints in [0,1) (coding)")
    p.add_argument("--levels", help="comma-separated values per piece (coding)")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="gordonlab",
        description="Repetition-time, defect, and transfer-matrix experiments.",
    )
    root.add_argument("--version", action="version", version=f"gordonlab {__version__}")
    sub = root.add_subparsers(dest="command", required=True)

    def finish(p, handler):
        """The output flags every subcommand shares, and the handler it runs."""
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--output", help="output path (default: stdout)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("cf", help="continued-fraction expansion and convergents")
    p.add_argument("--alpha", required=True)
    p.add_argument("--depth", type=int, default=32)
    finish(p, cmd_cf)

    p = sub.add_parser("classify", help="badly-approximable scan up to a horizon")
    p.add_argument("--alpha", required=True)
    p.add_argument("--c", required=True, help="constant c in q<q alpha> >= c")
    p.add_argument("--qmax", type=int, required=True)
    finish(p, cmd_classify)

    p = sub.add_parser("orbit", help="orbit coordinates over a site range")
    _add_system_flags(p)
    p.add_argument("--omega", help="start point (comma-separated; default origin)")
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    finish(p, cmd_orbit)

    p = sub.add_parser("repeat", help="search for a repetition certificate")
    _add_system_flags(p)
    p.add_argument("--omega")
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--r", type=_finite_float, default=1.0)
    p.add_argument("--qmax", type=int, required=True)
    finish(p, cmd_repeat)

    p = sub.add_parser("construct-q", help="constructive skew-shift repetition times")
    p.add_argument("--alpha", required=True)
    p.add_argument("--omega1")
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--r", type=_finite_float, default=1.0)
    p.add_argument("--max-base-q", type=int, dest="max_base_q")
    finish(p, cmd_construct_q)

    p = sub.add_parser("prp-measure", help="Monte Carlo repetition-fraction estimate")
    _add_system_flags(p)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--r", type=_finite_float, default=1.0)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    finish(p, cmd_prp_measure)

    p = sub.add_parser("veech", help="tower search for an interval exchange")
    _add_system_flags(p)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--qmax", type=int, required=True)
    finish(p, cmd_veech)

    p = sub.add_parser("gordon", help="defect profile gamma(q) and decay verdict")
    _add_system_flags(p)
    _add_function_flags(p)
    p.add_argument("--omega")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    p.add_argument("--q-list", dest="q_list", required=True)
    p.add_argument("--c-list", dest="c_list")
    finish(p, cmd_gordon)

    p = sub.add_parser("transfer", help="three-block norms for a period block")
    _add_system_flags(p)
    _add_function_flags(p)
    p.add_argument("--omega")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--energy", type=_finite_float, required=True)
    p.add_argument("--u0", help="two comma-separated components (default 1,0)")
    finish(p, cmd_transfer)

    p = sub.add_parser("spectrum", help="truncated spectrum with localization stats")
    _add_system_flags(p)
    _add_function_flags(p)
    p.add_argument("--omega")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--vectors", action="store_true")
    finish(p, cmd_spectrum)

    configurable = tuple(sub.choices)  # every subcommand but run itself
    p = sub.add_parser("run", help="run a subcommand from a JSON config file")
    p.add_argument("config", help="path to a JSON config file")
    p.set_defaults(subcommands=configurable)
    return root


def _args_from_config(path: str, subcommands: tuple) -> list[str]:
    """Translate a JSON config into the equivalent flag list."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict) or "subcommand" not in raw:
        raise ConfigError("config: top-level object with a 'subcommand' field required")
    sub_name = raw.pop("subcommand")
    if sub_name not in subcommands:
        raise ConfigError(f"config: subcommand {sub_name!r} unknown")
    argv = [sub_name]
    for key, value in raw.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_attach_negative_values(argv))
        if args.command == "run":
            config_argv = _args_from_config(args.config, args.subcommands)
            args = parser.parse_args(_attach_negative_values(config_argv))
        _check_counts(args)
        columns, rows, computed = args.handler(args)
        emit(
            args,
            args.command,
            _config_echo(args, computed),
            columns,
            rows,
            seed=getattr(args, "seed", None),
        )
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TypeError, RuntimeError) as exc:
        # the layers' domain errors; a raised one's layer is loaded already
        from .dynamics import UnsupportedSystemError
        from .spectral import ConvergenceFailureError

        if not isinstance(exc, (UnsupportedSystemError, ConvergenceFailureError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
