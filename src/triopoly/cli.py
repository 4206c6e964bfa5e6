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
survive a parse/print round trip.  Each subcommand accepts only the options
it reads.  A flat ``key = value`` config file can supply any long option of
that subcommand, checked as the flag is; explicit flags override the file.
Identical invocations with identical seeds produce byte-identical outputs.
"""
from __future__ import annotations

import math
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
from .presets import get_preset, preset_params
from .search import search_boxes
from .symbolic import (
    MAX_WORD_LENGTH, count_periodic_words, find_periodic_orbit, normalize_word, orbits_to_csv,
)

__all__ = ["main"]

_USAGE_EXIT = 3
_RUNTIME_EXIT = 4


class _CliError(argparse.ArgumentTypeError):
    """Input or usage problem; maps to exit code 3.

    An ``ArgumentTypeError``, so argparse prints its message when a
    ``type=`` caster raises it.
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


def _built(record, values):
    """``record(*values)``, its ValueError as a _CliError."""
    try:
        return record(*values)
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def _parse_params(text) -> Params:
    return _built(Params, _floats(text, 4, "--params"))


def _parse_box(text) -> Box:
    return _built(Box, _floats(text, 6, "--box"))


def _parse_start(text) -> State:
    return _built(State, _floats(text, 3, "--start"))


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


def _int_in(lo: int, hi: float, what: str):
    """A caster for integers in lo..hi, which its error calls ``what``."""
    def cast(text) -> int:
        value = _parse_int(text)
        if not lo <= value <= hi:
            raise _CliError(f"expected {what}, got {text!r}")
        return value
    return cast


_parse_count = _int_in(0, math.inf, "a non-negative integer")
_parse_positive = _int_in(1, math.inf, "an integer >= 1")


def _parse_word(text) -> str:
    return _built(normalize_word, (text,))


def _parse_float(text) -> float:
    try:
        return float(text)
    except ValueError:
        raise _CliError(f"expected a number, got {text!r}") from None


# ---------------------------------------------------------------------------
# option table: dest -> (caster, argparse extras).  The flag is --dest with
# "-" for "_", the config key is dest; both go through the caster and choices.
# ---------------------------------------------------------------------------

_OPTIONS = {
    "params": (_parse_params, {"metavar": "c1,c2,c3,alpha"}),
    "box": (_parse_box, {"metavar": "xl,xr,yl,yr,zl,zr"}),
    "preset": (str, {"choices": ("paper", "paper-raw"),
                     "help": "bundled fixture: reference parameters plus, where the "
                             "subcommand takes --box, the corrected candidate box; "
                             "'paper-raw' keeps the misprinted bound and fails box "
                             "validation on purpose"}),
    "engine": (str, {"choices": ("analytic", "interval", "both")}),
    "tol": (_parse_float, {}),
    "seed": (_parse_count, {}),
    "out": (str, {"help": "output file (default: stdout); a prefix for horseshoe"}),
    "budget": (_parse_positive, {"help": "interval-refinement budget of the rigorous engine "
                                         "(certify) or candidate evaluations (search)"}),
    "strategy": (str, {"choices": ("grid", "random", "refine")}),
    "scale": (_parse_float, {"help": "relative half-width of the perturbation around --box"}),
    "max_hits": (_parse_positive, {}),
    "resolution": (_int_in(2, math.inf, "an integer >= 2"), {}),
    "paths": (_parse_count, {"help": "number of random crossing paths"}),
    "word": (_parse_word, {"help": "binary word, e.g. 011"}),
    "max_k": (_int_in(1, MAX_WORD_LENGTH, f"an integer in 1..{MAX_WORD_LENGTH}"),
              {"help": "realize every word of length 1..K"}),
    "dedupe_cyclic": (_parse_bool, {"action": "store_const", "const": True,
                                    "help": "keep one representative per cyclic class"}),
    "start": (_parse_start, {"metavar": "x,y,z"}),
    "steps": (_parse_count, {}),
    "transient": (_parse_count, {}),
    "alpha_range": (_parse_pair, {"metavar": "lo,hi"}),
    "samples": (_int_in(2, math.inf, "an integer >= 2"), {}),
    "policy": (str, {"choices": ("nash", "perturbed-nash")}),
    "mu": (_parse_float, {}),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="triopoly",
                     description="certified chaos toolkit for the triopoly map")
    parser.add_argument("--version", action="version", version=f"triopoly {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, _, defaults) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        for dest in defaults:
            cast, extras = _OPTIONS[dest]
            if "action" not in extras:
                extras = {"type": cast, **extras}
            sp.add_argument("--" + dest.replace("_", "-"), dest=dest, **extras)
        sp.add_argument("--config", help="flat key = value file; flags override it")
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


def _from_config(dest: str, text: str):
    cast, extras = _OPTIONS[dest]
    try:
        value = cast(text)
    except _CliError as exc:
        raise _CliError(f"config key {dest}: {exc}") from None
    choices = extras.get("choices")
    if choices is not None and value not in choices:
        raise _CliError(f"config key {dest}: invalid choice: {value!r} "
                        f"(choose from {', '.join(map(repr, choices))})")
    return value


def _merge_options(args) -> None:
    """Fill unset options from the config file, then from defaults."""
    defaults = _COMMANDS[args.command][2]
    config = _load_config(args.config) if args.config else {}
    unknown = set(config) - set(defaults)
    if unknown:
        raise _CliError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    for dest, default in defaults.items():
        if getattr(args, dest) is not None:
            continue
        setattr(args, dest, _from_config(dest, config[dest]) if dest in config else default)
    if getattr(args, "preset", None) is not None:
        if args.params is None:
            args.params = preset_params(args.preset)
        # build the preset's box only where it is read: 'paper-raw' fails on purpose
        if "box" in defaults and args.box is None:
            args.box = get_preset(args.preset)[1]


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


def _certified(args, needs: str):
    """Certify ``args.box``, or say on stderr that it fails and return None."""
    cert = certify_box(args.params, args.box, engine=args.engine, tol=args.tol)
    if not cert.passed:
        sys.stderr.write(f"box does not certify (verdict: {cert.verdict}); {needs}\n")
        return None
    return cert


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
    )
    res.to_json_lines(_sink(args.out))
    return 0


def _cmd_horseshoe(args) -> int:
    _require(args, "params", "box")
    cert = _certified(args, "symbol covers need a certified box")
    if cert is None:
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
    if args.word is not None and args.dedupe_cyclic:
        raise _CliError("--dedupe-cyclic applies only with --max-k")
    cert = _certified(args, "symbolic words are only pinned for certified boxes")
    if cert is None:
        return 1
    ob = OrientedBox(args.box)
    if args.word is not None:
        results = [find_periodic_orbit(args.params, ob, args.word, cert=cert)]
    else:
        results = []
        for k in range(1, args.max_k + 1):
            results.extend(count_periodic_words(args.params, ob, k,
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
                             seed=args.seed)
    table.to_csv(_sink(args.out))
    rows = table.rows
    summary = [("first positive leading exponent",
                next((r.alpha for r in rows if not r.escaped and r.lyap1 > 0.0), None)),
               ("first escaping orbit", next((r.alpha for r in rows if r.escaped), None))]
    for what, alpha in summary:
        if alpha is not None:
            sys.stderr.write(f"{what} at alpha = {alpha:g}\n")
    return 0


def _cmd_demo_logistic(args) -> int:
    _require(args, "mu")
    report = logistic_sap_demo(args.mu)
    _emit_text(dumps17(report.as_dict(), indent=2) + "\n", args.out)
    return 0


# name -> (help, handler, {dest: default} of every option the handler reads)
_BOX = {"params": None, "box": None, "preset": None, "engine": "analytic", "tol": 1e-8,
        "out": None}
_ORBIT = {"params": None, "preset": None, "start": None, "steps": None, "transient": 0,
          "out": None}

_COMMANDS = {
    "certify": ("evaluate the full chaos certificate for a box", _cmd_certify,
                {**_BOX, "budget": 10**6}),
    "search": ("search for certificate-passing boxes", _cmd_search,
               {**_BOX, "budget": 10_000, "strategy": "random", "scale": 0.1,
                "max_hits": 5, "seed": 0}),
    "horseshoe": ("export symbol-set covers and path-stretching reports", _cmd_horseshoe,
                  {**_BOX, "resolution": 32, "paths": 20, "seed": 0}),
    "periodic": ("locate periodic orbits by symbolic word", _cmd_periodic,
                 {**_BOX, "word": None, "max_k": None, "dedupe_cyclic": False}),
    "simulate": ("iterate the map and emit the orbit as CSV", _cmd_simulate, _ORBIT),
    "lyapunov": ("QR-based Lyapunov spectrum along an orbit", _cmd_lyapunov, _ORBIT),
    "bifurcate": ("sweep the adjustment speed and emit a bifurcation CSV", _cmd_bifurcate,
                  {"params": None, "preset": None, "alpha_range": None, "samples": None,
                   "policy": "perturbed-nash", "transient": 1000, "seed": 0, "out": None}),
    "demo-logistic": ("covering-interval demo on the logistic family", _cmd_demo_logistic,
                      {"mu": None, "out": None}),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:          # argparse --help (0) or usage error (3)
        return int(exc.code or 0)
    try:
        _merge_options(args)
        return _COMMANDS[args.command][1](args)
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
