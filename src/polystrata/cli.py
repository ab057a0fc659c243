"""Command-line surface: compute homology, run verification suites, tabulate, export.

A command parses its options, computes one result and picks a format: the
result renders itself (``to_<format>``), in its type's own module.  ``export``
reads one table, ``EXPORTS``: per object, the options it needs, those it may
also read and the function that builds it.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input, 3 internal
invariant failure, 4 any other internal error, such as running out of memory.
All regular output goes to standard output, diagnostics to standard error;
exports are deterministic for identical inputs.
"""

from __future__ import annotations

import functools
import sys

import click

from .compositions import c_lambda_poset, delta_lambda_complex, parse_parts
from .homology import InvariantError
from .hyperbolic import (
    BACKENDS, PIPELINES, BackendDisagreement, hyp_homology, resonance_free_prediction
)
from .iterated import c_lambda_d_poset, iterated_poset
from .permutahedron import permutahedron_face_poset
from .posets import PosetError
from .resonance import primitive_identities
from .strata import StratumError, closure_poset, pol_homology, stabilization_report
from .verify import SUITES, partitions_of

INVALID_INPUT = 2
INVARIANT_FAILURE = 3
INTERNAL_ERROR = 4


def _guard(func):
    """Map domain errors to exit 2, invariant failures to exit 3 and any
    other exception, click's own aside, to exit 4 with a one-line message."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (ValueError, StratumError) as exc:
            click.echo("error: %s" % exc, err=True)
            sys.exit(INVALID_INPUT)
        except (InvariantError, BackendDisagreement, PosetError) as exc:
            click.echo("invariant failure: %s" % exc, err=True)
            sys.exit(INVARIANT_FAILURE)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            click.echo("internal error: %s: %s" % (type(exc).__name__, exc), err=True)
            sys.exit(INTERNAL_ERROR)

    return wrapper


def _show(result, fmt, *args):
    """Print ``result.to_<fmt>(*args)``, ending it in exactly one newline."""
    text = getattr(result, "to_" + fmt)(*args)
    click.echo(text, nl=not text.endswith("\n"))


def _parse_range(text):
    """An integer a, read as the range a..a, or a range a..b."""
    try:
        lo, hi = map(int, text.split("..")) if ".." in text else (int(text),) * 2
    except ValueError:
        raise ValueError("cannot parse %r as an integer or a range a..b" % text) from None
    return lo, hi


def _refuse_unread(what, given, reads):
    """Refuse, as invalid input, every option given (not None) that ``what``
    does not read."""
    ignored = [o for o, value in given.items() if value is not None and o not in reads]
    if ignored:
        raise ValueError("%s does not read %s" % (what, ", ".join(ignored)))


@click.group()
def main():
    """Posets, chain complexes and homology of polynomial stratifications."""


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text"
)
lambda_option = click.option("--lambda", "parts", required=True, help="comma-separated parts")
backends = click.Choice([*BACKENDS, "all"])


@main.command()
@lambda_option
@click.option("--backend", type=backends, default="all")
@format_option
@_guard
def hyp(parts, backend, fmt):
    """Homology of the compactified closed hyperbolic stratum of a type."""
    _show(hyp_homology(parse_parts(parts), None if backend == "all" else backend), fmt)


@main.command()
@lambda_option
@click.option("--n", type=int, required=True)
@format_option
@_guard
def pol(parts, n, fmt):
    """Homology of the compactified closed stratum in ambient degree n."""
    _show(pol_homology(parse_parts(parts), n), fmt)


@main.command(name="order-complex")
@lambda_option
@format_option
@_guard
def order_complex_cmd(parts, fmt):
    """Homology of the order complex of the coarsening poset of a type."""
    _show(PIPELINES["order-complex"](parse_parts(parts)), fmt)


@main.command()
@lambda_option
@format_option
@_guard
def delta(parts, fmt):
    """Homology of the partial-sum face complex of a type."""
    _show(PIPELINES["delta"](parse_parts(parts)), fmt)


# per suite, the options it reads and the keyword argument each one sets
SUITE_OPTIONS = {
    "hook": {"--n": "n_range", "--k": "k_range"},
    "resonance-free": {"--max-weight": "max_weight"},
    "prop-3-7": {"--max-weight": "max_weight"},
    "prop-3-11": {"--n": "n_range"},
    "paper-table": {},
    "d-squared": {"--l": "max_weight", "--n-max": "max_ambient"},
}


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@click.option("--n", "n_range", default=None, help="range a..b")
@click.option("--k", "k_range", default=None, help="range a..b")
@click.option("--l", "l_max", type=int, default=None)
@click.option("--n-max", type=int, default=None)
@click.option("--max-weight", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--quiet", is_flag=True, default=False)
@_guard
def verify(suite, n_range, k_range, l_max, n_max, max_weight, fmt, quiet):
    """Run a named verification suite; exit 1 on any mismatch, 2 on no case.

    An option that the suite does not read is refused with exit 2.
    """
    given = {
        "--n": n_range,
        "--k": k_range,
        "--l": l_max,
        "--n-max": n_max,
        "--max-weight": max_weight,
    }
    reads = SUITE_OPTIONS[suite]
    _refuse_unread("suite " + suite, given, reads)
    kwargs = {
        reads[option]: _parse_range(value) if isinstance(value, str) else value
        for option, value in given.items()
        if value is not None
    }
    report = SUITES[suite](**kwargs)
    if not report.cases:
        raise ValueError("no %s case in the given range" % suite)
    if fmt == "json" or not quiet:
        _show(report, fmt)
    if not report.passed:
        sys.exit(1)


@main.command()
@click.option("--max-weight", type=int, default=9)
@click.option("--backend", type=backends, default="cells")
@_guard
def table(max_weight, backend):
    """Homology of every type up to a weight, with the closed-form predictions."""
    if max_weight < 1:
        raise ValueError("no type in the given range")
    row = "%-18s %-10s %-28s %s"
    click.echo(row % ("lambda", "resonance", "homology", "prediction"))
    for n in range(1, max_weight + 1):
        for partition in partitions_of(n):
            homology = hyp_homology(partition, None if backend == "all" else backend)
            prediction = resonance_free_prediction(partition)
            free = prediction.kind != "none"
            note = ""
            if free:
                verdict = "ok" if prediction.matches(homology) else "MISMATCH"
                note = "%s (%s)" % (verdict, prediction.source)
            click.echo(row % (partition, "free" if free else "resonant", homology, note))


@main.command()
@lambda_option
@click.option("--n-min", type=int, help="default: lowest degree with a nonempty complement")
@click.option("--n-max", type=int, default=9)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text")
@_guard
def stabilization(parts, n_min, n_max, fmt):
    """Complement cohomology of a type in ambient degrees n_min, n_min+2, ..., n_max.

    Flags the first degree where consecutive tables differ.
    """
    _show(stabilization_report(parse_parts(parts), n_min, n_max), fmt)


@main.command()
@click.option("--max-weight", type=int, default=12)
@click.option("--list-identities", is_flag=True, default=False)
@_guard
def census(max_weight, list_identities):
    """Per weight, count the types free of resonances and the resonant ones."""
    if max_weight < 1:
        raise ValueError("no type in the given range")
    for n in range(1, max_weight + 1):
        types = partitions_of(n)
        resonant = [(p, ids) for p in types if (ids := primitive_identities(p))]
        click.echo(
            "weight %2d: %3d types, %3d free, %3d resonant"
            % (n, len(types), len(types) - len(resonant), len(resonant))
        )
        if list_identities:
            for partition, identities in resonant:
                pretty = ", ".join(
                    " = ".join("+".join(str(partition[i - 1]) for i in side) for side in pair)
                    for pair in identities
                )
                click.echo("    %s: %s" % (partition, pretty))


# per export object: the options it needs, those it may also read (besides
# --format), and the function that builds it from the options
EXPORTS = {
    "clambda": (
        ("--lambda",),
        ("--d",),
        lambda parts, d, **_: c_lambda_poset(parse_parts(parts))
        if d is None
        else c_lambda_d_poset(parse_parts(parts), d),
    ),
    "delta": (("--lambda",), (), lambda parts, **_: delta_lambda_complex(parse_parts(parts))),
    "closure-poset": (
        ("--lambda", "--n"),
        (),
        lambda parts, n, **_: closure_poset(parse_parts(parts), n),
    ),
    "permutahedron": (("--t",), (), lambda t, **_: permutahedron_face_poset(t)),
    "iterated": (("--n", "--d"), (), lambda n, d, **_: iterated_poset(n, d)),
}


@main.command()
@click.argument("obj", type=click.Choice(list(EXPORTS)))
@click.option("--lambda", "parts", default=None, help="comma-separated parts")
@click.option("--n", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--t", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["dot", "json"]), default="dot")
@_guard
def export(obj, parts, n, d, t, fmt):
    """Export a poset or complex as DOT or JSON, deterministically.

    ``clambda`` with ``--d`` exports C_{lambda,d}.  An option that the object
    does not read, or one it needs and lacks, is refused with exit 2.
    """
    given = {"--lambda": parts, "--n": n, "--d": d, "--t": t}
    needs, optional, build = EXPORTS[obj]
    _refuse_unread("export " + obj, given, needs + optional)
    if any(given[option] is None for option in needs):
        verb = "is" if len(needs) == 1 else "are"
        raise ValueError("%s %s required" % (" and ".join(needs), verb))
    name = [obj.replace("-", "_")] if fmt == "dot" else []
    _show(build(parts=parts, n=n, d=d, t=t), fmt, *name)


if __name__ == "__main__":
    main()
