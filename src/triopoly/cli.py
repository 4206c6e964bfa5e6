"""Command-line frontend for certification, search and dynamics workflows.

Exit codes are a stable contract:

  0  success; for ``certify``, the box is certified
  1  the certificate failed (``certify``), or a subcommand that needs a
     certified box was given one that fails
  2  the certificate is inconclusive or inapplicable (``certify``)
  3  usage, argument or input validation errors
  4  runtime failures inside the computation (domain escapes, stalled
     Newton solves)

All numeric file output is printed with 17 significant digits so values
survive a parse/print round trip.  A flat ``key = value`` config file can
supply any long option; explicit flags override the file.  Identical
invocations with identical seeds produce byte-identical outputs.
"""
from __future__ import annotations

import sys

import argparse

import numpy as np

from . import __version__
from .boxes import Box, InvalidBoxError, OrientedBox
from .certificate import SCHEMA_VERSION, certify_box
from .core import DomainError, Params, State
from .dynamics import bifurcation_scan, logistic_sap_demo, lyapunov_spectrum, simulate
from .horseshoe import (
    ConvergenceError,
    build_K_enclosures,
    check_path_stretching,
    random_crossing_path,
    vertical_segment_path,
)
from .jsonio import dumps17, open_sink, write_csv
from .presets import get_preset
from .search import search_boxes
from .symbolic import count_periodic_words, find_periodic_orbit, orbits_to_csv

__all__ = ["main"]

_ENGINES = ("analytic", "interval", "both")
_USAGE_EXIT = 3
_RUNTIME_EXIT = 4


class _CliError(ValueError):
    """Input or usage problem; maps to exit code 3.

    Subclasses ValueError so argparse treats a raise inside a ``type=``
    caster as a normal conversion failure.
    """


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_USAGE_EXIT)


# ---------------------------------------------------------------------------
# value parsers (shared by flags and config entries)
# ---------------------------------------------------------------------------

def _floats(text: str, n: int, what: str) -> tuple[float, ...]:
    parts = [s.strip() for s in str(text).split(",")]
    if len(parts) != n:
        raise _CliError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(s) for s in parts)
    except ValueError as exc:
        raise _CliError(f"{what}: {exc}") from None


def _parse_params(text) -> Params:
    c1, c2, c3, alpha = _floats(text, 4, "--params")
    return Params(c1=c1, c2=c2, c3=c3, alpha=alpha)


def _parse_box(text) -> Box:
    x_l, x_r, y_l, y_r, z_l, z_r = _floats(text, 6, "--box")
    return Box(x_l=x_l, x_r=x_r, y_l=y_l, y_r=y_r, z_l=z_l, z_r=z_r)


def _parse_start(text) -> State:
    x, y, z = _floats(text, 3, "--start")
    return State(x=x, y=y, z=z)


def _parse_pair(text) -> tuple[float, float]:
    lo, hi = _floats(text, 2, "--alpha-range")
    return (lo, hi)


def _parse_bool(text) -> bool:
    v = str(text).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise _CliError(f"expected a boolean, got {text!r}")


def _parse_int(text) -> int:
    try:
        return int(str(text), 10)
    except ValueError:
        raise _CliError(f"expected an integer, got {text!r}") from None


def _parse_float(text) -> float:
    try:
        return float(text)
    except ValueError:
        raise _CliError(f"expected a number, got {text!r}") from None


# ---------------------------------------------------------------------------
# option tables: dest -> (caster, default)
# ---------------------------------------------------------------------------

_SHARED = {
    "params": (_parse_params, None),
    "box": (_parse_box, None),
    "tol": (_parse_float, 1e-8),
    "seed": (_parse_int, 0),
    "engine": (str, "analytic"),
    "out": (str, None),
    "threads": (_parse_int, 1),
    "preset": (str, None),
}

_PER_COMMAND = {
    "certify": {"budget": (_parse_int, 10**6)},
    "search": {
        "budget": (_parse_int, 10_000),
        "strategy": (str, "random"),
        "scale": (_parse_float, 0.1),
        "max_hits": (_parse_int, 5),
    },
    "horseshoe": {"resolution": (_parse_int, 32), "paths": (_parse_int, 20)},
    "periodic": {
        "word": (str, None),
        "max_k": (_parse_int, None),
        "dedupe_cyclic": (_parse_bool, False),
    },
    "simulate": {
        "start": (_parse_start, None),
        "steps": (_parse_int, None),
        "transient": (_parse_int, 0),
    },
    "lyapunov": {
        "start": (_parse_start, None),
        "steps": (_parse_int, None),
        "transient": (_parse_int, 0),
    },
    "bifurcate": {
        "alpha_range": (_parse_pair, None),
        "samples": (_parse_int, None),
        "policy": (str, "perturbed-nash"),
        "transient": (_parse_int, 1000),
    },
    "demo-logistic": {"mu": (_parse_float, None), "samples": (_parse_int, 10_000)},
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="triopoly",
                     description="certified chaos toolkit for the triopoly map")
    parser.add_argument("--version", action="version", version=f"triopoly {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text):
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("--params", type=_parse_params, metavar="c1,c2,c3,alpha")
        sp.add_argument("--box", type=_parse_box, metavar="xl,xr,yl,yr,zl,zr")
        sp.add_argument("--tol", type=_parse_float)
        sp.add_argument("--seed", type=_parse_int)
        sp.add_argument("--engine", choices=_ENGINES)
        sp.add_argument("--out", help="output file (default: stdout); a prefix for horseshoe")
        sp.add_argument("--threads", type=_parse_int,
                        help="accepted for compatibility; has no effect")
        sp.add_argument("--preset", choices=("paper", "paper-raw"),
                        help="bundled fixture: reference parameters plus the corrected "
                             "candidate box; 'paper-raw' keeps the misprinted bound "
                             "and fails box validation on purpose")
        sp.add_argument("--config", help="flat key = value file; flags override it")
        return sp

    sp = add("certify", "evaluate the full chaos certificate for a box")
    sp.add_argument("--budget", type=_parse_int,
                    help="interval-refinement budget for the rigorous engine")

    sp = add("search", "search for certificate-passing boxes")
    sp.add_argument("--budget", type=_parse_int, help="candidate evaluations")
    sp.add_argument("--strategy", choices=("grid", "random", "refine"))
    sp.add_argument("--scale", type=_parse_float,
                    help="relative half-width of the perturbation around --box")
    sp.add_argument("--max-hits", dest="max_hits", type=_parse_int)

    sp = add("horseshoe", "export symbol-set covers and path-stretching reports")
    sp.add_argument("--resolution", type=_parse_int)
    sp.add_argument("--paths", type=_parse_int, help="number of random crossing paths")

    sp = add("periodic", "locate periodic orbits by symbolic word")
    sp.add_argument("--word", help="binary word, e.g. 011")
    sp.add_argument("--max-k", dest="max_k", type=_parse_int,
                    help="realize every word of length 1..K")
    sp.add_argument("--dedupe-cyclic", dest="dedupe_cyclic", action="store_const",
                    const=True, help="keep one representative per cyclic class")

    sp = add("simulate", "iterate the map and emit the orbit as CSV")
    sp.add_argument("--start", type=_parse_start, metavar="x,y,z")
    sp.add_argument("--steps", type=_parse_int)
    sp.add_argument("--transient", type=_parse_int)

    sp = add("lyapunov", "QR-based Lyapunov spectrum along an orbit")
    sp.add_argument("--start", type=_parse_start, metavar="x,y,z")
    sp.add_argument("--steps", type=_parse_int)
    sp.add_argument("--transient", type=_parse_int)

    sp = add("bifurcate", "sweep the adjustment speed and emit a bifurcation CSV")
    sp.add_argument("--alpha-range", dest="alpha_range", type=_parse_pair, metavar="lo,hi")
    sp.add_argument("--samples", type=_parse_int)
    sp.add_argument("--policy", choices=("nash", "perturbed-nash"))
    sp.add_argument("--transient", type=_parse_int)

    sp = add("demo-logistic", "covering-interval demo on the logistic family")
    sp.add_argument("--mu", type=_parse_float)
    sp.add_argument("--samples", type=_parse_int)

    return parser


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    table = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _CliError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                table[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _CliError(f"cannot read config {path}: {exc}") from None
    return table


def _merge_options(args) -> None:
    """Fill unset options from the config file, then from defaults."""
    spec = dict(_SHARED)
    spec.update(_PER_COMMAND[args.command])
    config = _load_config(args.config) if args.config else {}
    unknown = set(config) - set(spec)
    if unknown:
        raise _CliError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    for dest, (cast, default) in spec.items():
        if getattr(args, dest, None) is not None:
            continue
        if dest in config:
            setattr(args, dest, cast(config[dest]))
        else:
            setattr(args, dest, default)
    if args.preset is not None:
        preset_params, preset_box = get_preset(args.preset)
        if args.params is None:
            args.params = preset_params
        if args.box is None:
            args.box = preset_box


def _require(args, *dests) -> None:
    for dest in dests:
        if getattr(args, dest) is None:
            flag = "--" + dest.replace("_", "-")
            raise _CliError(f"{args.command} requires {flag} (flag, config or preset)")


def _sink(out: str | None):
    return sys.stdout if out is None else out


def _emit_text(text: str, out: str | None) -> None:
    with open_sink(_sink(out)) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_certify(args) -> int:
    _require(args, "params", "box")
    cert = certify_box(args.params, args.box, engine=args.engine,
                       tol=args.tol, budget=args.budget)
    _emit_text(dumps17(cert.as_dict(), indent=2) + "\n", args.out)
    return {"certified": 0, "failed": 1}.get(cert.verdict, 2)


def _cmd_search(args) -> int:
    _require(args, "params")
    res = search_boxes(
        args.params,
        args.strategy,
        args.budget,
        near=args.box,
        scale=args.scale,
        seed=args.seed,
        engine=args.engine,
        tol=args.tol,
        max_hits=args.max_hits,
        threads=args.threads,
    )
    res.to_json_lines(_sink(args.out))
    return 0


def _cmd_horseshoe(args) -> int:
    _require(args, "params", "box")
    cert = certify_box(args.params, args.box, engine=args.engine, tol=args.tol)
    if not cert.passed:
        sys.stderr.write(f"box does not certify (verdict: {cert.verdict}); "
                         "symbol covers need a certified box\n")
        return 1
    ob = OrientedBox(args.box)
    k0, k1 = build_K_enclosures(args.params, ob, args.resolution, cert=cert)
    reports = [check_path_stretching(args.params, ob, vertical_segment_path(ob), cert=cert)]
    rng = np.random.default_rng(args.seed)
    for _ in range(args.paths):
        path = random_crossing_path(ob, rng)
        reports.append(check_path_stretching(args.params, ob, path, cert=cert))
    prefix = args.out if args.out is not None else "horseshoe"
    k0.to_csv(f"{prefix}-k0.csv")
    k1.to_csv(f"{prefix}-k1.csv")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "stretch-reports",
        "params": args.params.as_dict(),
        "box": args.box.as_dict(),
        "resolution": args.resolution,
        "seed": args.seed,
        "reports": [r.as_dict() for r in reports],
    }
    _emit_text(dumps17(doc, indent=2) + "\n", f"{prefix}-stretch.json")
    ok = sum(1 for r in reports if r.status == "ok")
    sys.stdout.write(
        f"wrote {prefix}-k0.csv ({k0.cell_count} cells), "
        f"{prefix}-k1.csv ({k1.cell_count} cells), "
        f"{prefix}-stretch.json ({ok}/{len(reports)} paths with two disjoint crossings)\n"
    )
    return 0


def _cmd_periodic(args) -> int:
    _require(args, "params", "box")
    if (args.word is None) == (args.max_k is None):
        raise _CliError("periodic needs exactly one of --word or --max-k")
    cert = certify_box(args.params, args.box, engine=args.engine, tol=args.tol)
    if not cert.passed:
        sys.stderr.write(f"box does not certify (verdict: {cert.verdict}); "
                         "symbolic words are only pinned for certified boxes\n")
        return 1
    ob = OrientedBox(args.box)
    if args.word is not None:
        results = [find_periodic_orbit(args.params, ob, args.word, tol=args.tol, cert=cert)]
    else:
        if args.max_k < 1:
            raise _CliError("--max-k must be at least 1")
        results = []
        for k in range(1, args.max_k + 1):
            results.extend(count_periodic_words(args.params, ob, k, tol=args.tol,
                                                dedupe_cyclic=args.dedupe_cyclic,
                                                cert=cert))
    orbits_to_csv(results, _sink(args.out))
    stalled = [r.word for r in results if not r.converged]
    if stalled:
        sys.stderr.write(f"triopoly periodic: runtime failure: Newton did not converge "
                         f"for word(s) {', '.join(stalled)}\n")
        return _RUNTIME_EXIT
    return 0


def _cmd_simulate(args) -> int:
    _require(args, "params", "start", "steps")
    record = simulate(args.params, args.start, args.steps, transient=args.transient)
    record.to_csv(_sink(args.out))
    return 0


def _cmd_lyapunov(args) -> int:
    _require(args, "params", "start", "steps")
    spectrum = lyapunov_spectrum(args.params, args.start, args.steps,
                                 transient=args.transient)
    write_csv(_sink(args.out), ["lambda1", "lambda2", "lambda3", "steps", "escaped", "note"],
              [[*(f"{v:.17g}" for v in spectrum.exponents),
                spectrum.steps, spectrum.escaped, spectrum.note]])
    return 0


def _cmd_bifurcate(args) -> int:
    _require(args, "params", "alpha_range", "samples")
    table = bifurcation_scan(args.params, args.alpha_range, args.samples,
                             s0_policy=args.policy, transient=args.transient,
                             seed=args.seed, threads=args.threads)
    table.to_csv(_sink(args.out))
    return 0


def _cmd_demo_logistic(args) -> int:
    _require(args, "mu")
    report = logistic_sap_demo(args.mu, samples=args.samples)
    _emit_text(dumps17(report.as_dict(), indent=2) + "\n", args.out)
    return 0


_COMMANDS = {
    "certify": _cmd_certify,
    "search": _cmd_search,
    "horseshoe": _cmd_horseshoe,
    "periodic": _cmd_periodic,
    "simulate": _cmd_simulate,
    "lyapunov": _cmd_lyapunov,
    "bifurcate": _cmd_bifurcate,
    "demo-logistic": _cmd_demo_logistic,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:          # argparse --help (0) or usage error (3)
        return int(exc.code or 0)
    try:
        _merge_options(args)
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        sys.stderr.write(f"triopoly {args.command}: error: {exc}\n")
        return _USAGE_EXIT
    # DomainError subclasses ValueError, so it must be caught first
    except (DomainError, ConvergenceError, ArithmeticError) as exc:
        sys.stderr.write(f"triopoly {args.command}: runtime failure: {exc}\n")
        return _RUNTIME_EXIT
    except (InvalidBoxError, ValueError) as exc:
        sys.stderr.write(f"triopoly {args.command}: invalid input: {exc}\n")
        return _USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
