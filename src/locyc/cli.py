"""Command-line front end.

Exit codes are the machine contract:
  0   success (or: every check passed)
  1   verification failure
  2   search ended without a hit (test budget or d range exhausted)
  3   internal invariant failure
  64  usage error
  65  certificate parse error
  71  out of memory (for instance a huge --x-window or --d-range)
  73  the certificate file cannot be written
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys

from . import __version__, primality
from .certificate import (
    Certificate,
    CertificateFormatError,
    CheckReport,
    emit,
    parse,
    verify_certificate,
    with_report,
)
from .primality import is_prime
from .prime_search import BudgetExhaustedError, SearchConfig, search, with_sieve_bound
from .target_builder import build_certificate, build_targets, linear_forms
from .tate_series import build_bundle, target_precision

log = logging.getLogger("locyc")

EX_USAGE = 64
EX_DATAERR = 65
EX_OSERR = 71
EX_CANTCREAT = 73


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_prime_arg(p: int) -> None:
    if p < 2 or not is_prime(p).is_prime_enough():
        raise UsageError(f"{p} is not prime")
    if p < 5:
        raise UsageError(
            f"p = {p} is too small: the construction needs p >= 5 "
            "(4 must be a unit and the torsion argument fails below 5)"
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="locyc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="search for a curve and emit its certificate")
    c.add_argument("--prime", type=int, required=True)
    c.add_argument("--seed", type=int, default=SearchConfig.seed)
    c.add_argument("--budget", type=int, default=SearchConfig.budget, help="max primality tests")
    c.add_argument("--out", default=None, help="certificate path (default certificate-p<P>.json)")
    c.add_argument("--workers", type=int, default=SearchConfig.worker_count, help="search threads")
    c.add_argument("--d-range", type=int, default=SearchConfig.d_range)
    c.add_argument("--x-window", type=int, default=SearchConfig.x_window)
    c.add_argument("-v", "--verbose", action="store_true")

    v = sub.add_parser("verify", help="re-run every check of a certificate file")
    v.add_argument("file")
    v.add_argument("-v", "--verbose", action="store_true")

    s = sub.add_parser("series", help="print the p-adic expansions behind the construction")
    s.add_argument("--prime", type=int, required=True)
    s.add_argument("--digits", type=int, default=12)
    s.add_argument("-v", "--verbose", action="store_true")
    return parser


def construct(p: int, config: SearchConfig) -> tuple[Certificate, CheckReport]:
    """The whole construction for p: series bundle, CRT targets, the
    simultaneous-prime search, then the certificate and its C1..C12 report.

    The certificate comes back with that report attached.  Raises
    UsageError, before any series work, when p is not a prime >= 5, and
    BudgetExhaustedError when the search stops without a hit.
    """
    _check_prime_arg(p)
    bundle = build_bundle(p)
    target = build_targets(bundle)
    forms = linear_forms(target)
    config = with_sieve_bound(config, forms)
    log.info(
        "event=construct_start p=%d seed=%d workers=%d sieve_bound=%d",
        p,
        config.seed,
        config.worker_count,
        config.sieve_bound,
    )
    x0, y0, evidence = search(forms, target, config)
    cert = build_certificate(target, forms, x0, y0, evidence, bundle, seed=config.seed)
    report = verify_certificate(cert)
    return with_report(cert, report), report


def _write_atomically(path: str, text: str) -> None:
    """Write through a temporary file in the same directory, so the path
    holds either nothing or the whole text."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _unwritable(path: str) -> str | None:
    """Why a file cannot be written at path, judged before writing it;
    None when nothing says so."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    if not os.path.isdir(directory):
        return os.strerror(errno.ENOENT)
    if not os.access(directory, os.W_OK | os.X_OK):
        return os.strerror(errno.EACCES)
    return None


def _cmd_construct(args) -> int:
    _check_prime_arg(args.prime)
    for flag, value, least in (
        ("--budget", args.budget, 0),
        # random.Random seeds with |seed|, so a negative seed would
        # write the certificate of its absolute value
        ("--seed", args.seed, 0),
        ("--d-range", args.d_range, 1),
        ("--x-window", args.x_window, 1),
        ("--workers", args.workers, 1),
    ):
        if value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
    cpus = os.cpu_count() or 1
    if args.workers > cpus:
        raise UsageError(f"--workers must be at most {cpus} (the CPU count), "
                         f"got {args.workers}")
    if args.workers > 1 and primality.kernel() is None:
        # builtin pow holds the interpreter lock, so the threads take turns
        print("warning: --workers above 1 gains nothing without libcrypto: "
              "the search threads take turns on builtin pow", file=sys.stderr)
    config = SearchConfig(
        seed=args.seed,
        d_range=args.d_range,
        x_window=args.x_window,
        budget=args.budget,
        worker_count=args.workers,
    )
    out = args.out or f"certificate-p{args.prime}.json"
    # fail before the search rather than after it
    reason = _unwritable(out)
    if reason is not None:
        print(f"error: cannot write {out}: {reason}", file=sys.stderr)
        return EX_CANTCREAT
    try:
        cert, report = construct(args.prime, config)
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not report.all_passed:
        for line in report.lines():
            print(line, file=sys.stderr)
        print(
            f"internal error: construction produced a certificate failing "
            f"{report.failing()}",
            file=sys.stderr,
        )
        return 3
    try:
        _write_atomically(out, emit(cert))
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return EX_CANTCREAT
    log.info("event=certificate_written path=%s", out)
    print(f"certificate written to {out} (q1, q2, q3 of {cert.q1.bit_length()}, "
          f"{cert.q2.bit_length()}, {cert.q3.bit_length()} bits)")
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            cert = parse(fh.read())
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EX_DATAERR
    except (CertificateFormatError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EX_DATAERR
    report = verify_certificate(cert)
    for line in report.lines():
        print(line)
    if report.all_passed:
        print("verdict: all checks passed")
        return 0
    print(f"verdict: FAILED checks {report.failing()}")
    return 1


def format_expansion(x: int, p: int, k: int) -> str:
    """Render the k lowest base-p digits of x as c0 + c1*p + c2*p^2 + ...
    with digits in [0, p); x must be known mod p^k at least."""
    parts = []
    for i in range(k):
        x, d = divmod(x, p)
        if i == 0:
            parts.append(str(d))
        elif i == 1:
            parts.append(f"{d}*{p}")
        else:
            parts.append(f"{d}*{p}^{i}")
    return " + ".join(parts) + f" + O({p}^{k})"


def _cmd_series(args) -> int:
    _check_prime_arg(args.prime)
    if args.digits < 1:
        raise UsageError("digits must be positive")
    p, k = args.prime, args.digits
    # alpha/beta/gamma sit p digits below the working precision
    bundle = build_bundle(p, precision=max(target_precision(p), k + p))
    rows = [
        ("a4", bundle.a4),
        ("a6", bundle.a6),
        ("x''_1", bundle.xpp1),
        ("x''_2", bundle.xpp2),
        ("x''_3", bundle.xpp3),
        ("alpha", bundle.alpha),
        ("beta", bundle.beta),
        ("gamma", bundle.gamma),
    ]
    print(f"series data at q = {p}^{2 * p}, shown to {k} base-{p} digits")
    for name, value in rows:
        print(f"{name:>6} = {format_expansion(value, p, k)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(message)s",
    )
    try:
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "series":
            return _cmd_series(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EX_OSERR
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())
