"""Command-line surface: compute homology, run verification suites, export.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input, 3 internal
invariant failure.  All regular output goes to standard output, diagnostics
to standard error; exports are deterministic for identical inputs.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .compositions import (
    c_lambda_poset,
    delta_lambda_complex,
    parse_parts,
)
from .homology import BoundarySquareError, simplicial_homology
from .hyperbolic import BackendDisagreement, hyp_homology
from .iterated import iterated_poset
from .permutahedron import permutahedron_face_poset
from .polyspace import PolynomialError
from .posets import PosetError, face_poset, order_complex
from .strata import StratumError, closure_poset, pol_homology
from .verify import SUITES

INVALID_INPUT = 2
INVARIANT_FAILURE = 3


def _guard(func):
    """Map domain errors to exit 2 and invariant failures to exit 3."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (ValueError, PolynomialError, StratumError) as exc:
            click.echo("error: %s" % exc, err=True)
            sys.exit(INVALID_INPUT)
        except (BoundarySquareError, BackendDisagreement, PosetError, AssertionError) as exc:
            click.echo("invariant failure: %s" % exc, err=True)
            sys.exit(INVARIANT_FAILURE)

    return wrapper


def _render_homology(result, fmt, quiet=False):
    if fmt == "json":
        click.echo(result.to_json())
    elif fmt == "csv":
        click.echo("degree,betti,torsion")
        for q, b, t in result.groups:
            click.echo("%d,%d,%s" % (q, b, ";".join(map(str, t))))
    else:
        click.echo(str(result))


def _parse_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


@click.group()
def main():
    """Posets, chain complexes and homology of polynomial stratifications."""


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text"
)
lambda_option = click.option("--lambda", "parts", required=True, help="comma-separated parts")
quiet_option = click.option("--quiet", is_flag=True, default=False)


@main.command()
@lambda_option
@click.option(
    "--backend",
    type=click.Choice(["cells", "order-complex", "delta", "all"]),
    default="all",
)
@format_option
@_guard
def hyp(parts, backend, fmt):
    """Homology of the compactified closed hyperbolic stratum of a type."""
    partition = tuple(sorted(parse_parts(parts)))
    result = hyp_homology(partition, None if backend == "all" else backend)
    _render_homology(result, fmt)


@main.command()
@lambda_option
@click.option("--n", type=int, required=True)
@format_option
@_guard
def pol(parts, n, fmt):
    """Homology of the compactified closed stratum in ambient degree n."""
    partition = tuple(sorted(parse_parts(parts)))
    _render_homology(pol_homology(partition, n), fmt)


@main.command(name="order-complex")
@lambda_option
@format_option
@_guard
def order_complex_cmd(parts, fmt):
    """Homology of the order complex of the coarsening poset of a type."""
    partition = tuple(sorted(parse_parts(parts)))
    result = simplicial_homology(order_complex(c_lambda_poset(partition)))
    _render_homology(result, fmt)


@main.command()
@lambda_option
@format_option
@_guard
def delta(parts, fmt):
    """Homology of the partial-sum face complex of a type."""
    partition = tuple(sorted(parse_parts(parts)))
    result = simplicial_homology(delta_lambda_complex(partition).complex)
    _render_homology(result, fmt)


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@click.option("--n", "n_range", default=None, help="range a..b")
@click.option("--k", "k_range", default=None, help="range a..b")
@click.option("--l", "l_max", type=int, default=None)
@click.option("--n-max", type=int, default=None)
@click.option("--max-weight", type=int, default=None)
@format_option
@quiet_option
@_guard
def verify(suite, n_range, k_range, l_max, n_max, max_weight, fmt, quiet):
    """Run a named verification suite; exit 1 on any mismatch."""
    kwargs = {}
    if suite == "hook":
        if n_range:
            kwargs["n_range"] = _parse_range(n_range)
        if k_range:
            kwargs["k_range"] = _parse_range(k_range)
    elif suite == "prop-3-11":
        if n_range:
            kwargs["n_range"] = _parse_range(n_range)
    elif suite == "d-squared":
        if l_max is not None:
            kwargs["max_weight"] = l_max
        if n_max is not None:
            kwargs["max_ambient"] = n_max
    elif suite in ("resonance-free", "prop-3-7") and max_weight is not None:
        kwargs["max_weight"] = max_weight
    report = SUITES[suite](**kwargs)
    if fmt == "json":
        click.echo(report.to_json())
    elif not quiet:
        click.echo(report.to_text())
    if not report.passed:
        sys.exit(1)


@main.command()
@click.argument(
    "obj",
    type=click.Choice(["clambda", "delta", "closure-poset", "permutahedron", "iterated"]),
)
@click.option("--lambda", "parts", default=None, help="comma-separated parts")
@click.option("--n", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--t", type=int, default=None)
@click.option(
    "--format", "fmt", type=click.Choice(["dot", "json"]), default="dot"
)
@_guard
def export(obj, parts, n, d, t, fmt):
    """Export a poset or complex as DOT or JSON, deterministically."""
    if obj == "delta":
        if parts is None:
            raise ValueError("--lambda is required")
        labeled = delta_lambda_complex(tuple(sorted(parse_parts(parts))))
        if fmt == "json":
            click.echo(
                json.dumps(
                    {
                        "vertices": list(labeled.complex.vertices),
                        "faces": sorted(map(list, labeled.complex.faces)),
                        "labels": {
                            ",".join(map(str, f)): list(c)
                            for f, c in sorted(labeled.labels.items())
                        },
                    }
                )
            )
        else:
            click.echo(face_poset(labeled.complex).to_dot("delta"), nl=False)
        return
    if obj == "clambda":
        if parts is None:
            raise ValueError("--lambda is required")
        poset = c_lambda_poset(tuple(sorted(parse_parts(parts))))
    elif obj == "closure-poset":
        if parts is None or n is None:
            raise ValueError("--lambda and --n are required")
        poset = closure_poset(tuple(sorted(parse_parts(parts))), n)
    elif obj == "permutahedron":
        if t is None:
            raise ValueError("--t is required")
        poset = permutahedron_face_poset(t)
    else:
        if n is None or d is None:
            raise ValueError("--n and --d are required")
        poset = iterated_poset(n, d)
    if fmt == "json":
        click.echo(poset.to_json())
    else:
        click.echo(poset.to_dot(obj.replace("-", "_")), nl=False)


if __name__ == "__main__":
    main()
