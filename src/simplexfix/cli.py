"""Command-line frontend.

Subcommands: ``decide``, ``extensions``, ``canon``, ``count-classes``,
``enumerate-classes``, ``scan``, ``witness``, ``sample``.  Configuration
arguments are file paths (``-`` for stdin) in the text or JSON format of
:mod:`simplexfix.configio`.

Exit codes: 0 success, 1 usage error (including a configuration of more
than ``criteria.MAX_LABELS`` labels, and ``extensions`` on one of more than
:data:`MAX_EXTENSIONS` linear extensions), 2 unparseable input (with
``line:column`` diagnostics).  When stdout's reader goes away before the
output ends (``simplexfix scan ... | head -1``), the command stops
quietly with exit code 1, as Python does on a broken pipe, but with no
traceback and nothing on stderr.  Flag defaults honor environment variables
``SIMPLEXFIX_FORMAT``, ``SIMPLEXFIX_SEED``, ``SIMPLEXFIX_SAMPLES`` and
``SIMPLEXFIX_THREADS``; a malformed value is a usage error.  Identical invocations print byte-identical
output regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# every command loads these; engine, equivalence and landmark each command
# imports itself, so a scan loads neither the engine nor the symmetry group
# (every process compiles the modules it imports where no bytecode is kept)
from .configio import (
    InputFormatError,
    assignment_to_json,
    configuration_to_json,
    parse_configuration,
    render_configuration_text,
)
from .criteria import Status, check_size
from .orders import configuration_extensions, extension_count

USAGE_ERROR = 1
INPUT_ERROR = 2

#: most linear extensions ``extensions`` lists; it counts them first, so a
#: sparse input is refused at once instead of enumerated without bound
MAX_EXTENSIONS = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _env_default(name: str, fallback, cast=str):
    """Flag default from ``SIMPLEXFIX_<name>``; a malformed value is a
    usage error (ValueError naming the variable)."""
    raw = os.environ.get(f"SIMPLEXFIX_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(
            f"environment variable SIMPLEXFIX_{name}={raw!r} is not a valid {cast.__name__}"
        ) from None


def _add_common(parser: _Parser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default=_env_default("FORMAT", "text"),
        help="output format (default text; env SIMPLEXFIX_FORMAT)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="simplexfix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide fixity of a configuration")
    p.add_argument("config", help="configuration file ('-' for stdin)")
    _add_common(p)
    p.add_argument(
        "--debug-crosscheck",
        action="store_true",
        help="at n=4, also check that the three characterizations agree; the output is unchanged",
    )

    p = sub.add_parser("extensions", help="list the linear extensions of a configuration")
    p.add_argument("config")
    _add_common(p)

    p = sub.add_parser("canon", help="canonical form and the group element reaching it")
    p.add_argument("config")
    _add_common(p)

    p = sub.add_parser("count-classes", help="number of equivalence classes of linear configurations")
    p.add_argument("n", type=int)
    p.add_argument("--allow-long", action="store_true", help="permit the n=6 computation")
    _add_common(p)

    p = sub.add_parser("enumerate-classes", help="one representative per equivalence class")
    p.add_argument("n", type=int)
    p.add_argument("--allow-long", action="store_true", help="permit the n=5 enumeration")
    _add_common(p)

    p = sub.add_parser("scan", help="decide every (d+1)-subset of a labeled point cloud")
    p.add_argument("csv", help="point cloud CSV ('-' for stdin)")
    _add_common(p)
    p.add_argument("--jitter", type=int, metavar="SEED", default=None,
                   help="break coordinate ties by deterministic perturbation (non-exact)")
    p.add_argument("--threads", type=int, default=_env_default("THREADS", 1, int),
                   help="accepted for compatibility; no effect, the scan runs in one "
                        "thread (env SIMPLEXFIX_THREADS)")

    p = sub.add_parser("witness", help="construct an exact opposite-orientation witness pair")
    p.add_argument("config")
    _add_common(p)

    p = sub.add_parser("sample", help="histogram of determinant signs over random satisfying assignments")
    p.add_argument("config")
    _add_common(p)
    p.add_argument("--seed", type=int, default=_env_default("SEED", 0, int),
                   help="RNG seed (default 0; env SIMPLEXFIX_SEED)")
    p.add_argument("--samples", type=int, default=_env_default("SAMPLES", 1000, int),
                   help="sample count (default 1000; env SIMPLEXFIX_SAMPLES)")
    p.add_argument("--threads", type=int, default=_env_default("THREADS", 1, int),
                   help="accepted for compatibility; no effect, sampling runs in one "
                        "thread (env SIMPLEXFIX_THREADS)")

    return parser


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputFormatError(str(exc)) from None


def _load_configuration(path: str):
    cfg = parse_configuration(_read_source(path))
    check_size(cfg.n())
    return cfg


def _print_verdict_text(verdict) -> None:
    if verdict.status is Status.FIXED:
        print(f"fixed {verdict.sign}")
    elif verdict.status is Status.NON_FIXED:
        print("non_fixed")
    else:
        print("unknown")


def _cmd_decide(args) -> int:
    from .engine import decide

    cfg = _load_configuration(args.config)
    verdict = decide(cfg, debug_crosscheck=args.debug_crosscheck)
    if args.format == "json":
        print(json.dumps(verdict.to_json(), sort_keys=True))
    else:
        _print_verdict_text(verdict)
    return 0


def _cmd_extensions(args) -> int:
    cfg = _load_configuration(args.config)
    count = extension_count(cfg)
    if count > MAX_EXTENSIONS:
        raise ValueError(
            f"configuration has {count} linear extensions; extensions lists at most {MAX_EXTENSIONS}"
        )
    extensions = list(configuration_extensions(cfg))
    if args.format == "json":
        print(json.dumps([configuration_to_json(e) for e in extensions]))
    else:
        print("\n\n".join(render_configuration_text(e) for e in extensions))
    return 0


def _cmd_canon(args) -> int:
    from .equivalence import canonical_form, sign_parity

    cfg = _load_configuration(args.config)
    canon, g = canonical_form(cfg)  # ValueError on partial input
    element = {
        "axis_source": list(g.axis_source),
        "label_perm": list(g.label_perm),
        "reversals": [bool(b) for b in g.reversals],
        "parity": str(sign_parity(g)),
    }
    if args.format == "json":
        print(json.dumps({"canonical": configuration_to_json(canon), "group_element": element},
                         sort_keys=True))
    else:
        print(render_configuration_text(canon))
        print(f"# mapped by axes={element['axis_source']} labels={element['label_perm']} "
              f"reversals={element['reversals']} parity={element['parity']}")
    return 0


def _cmd_count_classes(args) -> int:
    from .equivalence import count_classes

    if args.n == 6 and not args.allow_long:
        print("simplexfix: count-classes 6 needs --allow-long", file=sys.stderr)
        return USAGE_ERROR
    count = count_classes(args.n)
    if args.format == "json":
        print(json.dumps({"n": args.n, "classes": count}))
    else:
        print(count)
    return 0


def _cmd_enumerate_classes(args) -> int:
    from .equivalence import enumerate_classes

    reps = enumerate_classes(args.n, allow_long=args.allow_long)
    if args.format == "json":
        print(json.dumps([configuration_to_json(r) for r in reps]))
    else:
        print("\n\n".join(render_configuration_text(r) for r in reps))
    return 0


def _cmd_scan(args) -> int:
    from .landmark import PointCloud, iter_scan, json_lines, subset_width, text_lines

    cloud = PointCloud.from_csv(_read_source(args.csv))
    if args.format == "json":
        lines = json_lines(cloud, args.jitter)
    else:
        results = iter_scan(cloud, jitter_seed=args.jitter)
        lines = text_lines(results, subset_width(cloud), args.jitter)
    for line in lines:  # each line goes out as soon as its subset is decided
        print(line, flush=True)
    return 0


def _cmd_witness(args) -> int:
    from .engine import NotNonFixedError, build_witness

    cfg = _load_configuration(args.config)
    try:
        pair = build_witness(cfg)
    except NotNonFixedError as exc:
        print(f"simplexfix: {exc}", file=sys.stderr)
        return USAGE_ERROR
    payload = {"plus": assignment_to_json(pair.plus), "minus": assignment_to_json(pair.minus)}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for side in ("plus", "minus"):
            print(f"{side}:")
            for lab, coords in payload[side].items():
                rendered = " ".join(f"{a}={v}" for a, v in coords.items())
                print(f"  {lab}: {rendered}")
    return 0


def _cmd_sample(args) -> int:
    from .engine import sample_signs

    cfg = _load_configuration(args.config)
    histogram = sample_signs(cfg, args.seed, args.samples)
    if args.format == "json":
        print(json.dumps(histogram, sort_keys=True))
    else:
        print(f"pos={histogram['pos']} neg={histogram['neg']} zero={histogram['zero']}")
    return 0


_COMMANDS = {
    "decide": _cmd_decide,
    "extensions": _cmd_extensions,
    "canon": _cmd_canon,
    "count-classes": _cmd_count_classes,
    "enumerate-classes": _cmd_enumerate_classes,
    "scan": _cmd_scan,
    "witness": _cmd_witness,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:
        print(f"simplexfix: {exc}", file=sys.stderr)
        return USAGE_ERROR
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except InputFormatError as exc:
        print(f"simplexfix: {exc.location()}{exc}", file=sys.stderr)
        return INPUT_ERROR
    except ValueError as exc:
        print(f"simplexfix: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the output still buffered would fail again when Python flushes
        # stdout at exit; send it to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
