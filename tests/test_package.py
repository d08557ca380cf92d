import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import simplexalg
from simplexalg import moments, racah
from simplexalg.linalg import ExactMatrix
from simplexalg.scalar import Rat
from simplexalg.verify import SUITES, ModuleContext, run_suites


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library invariants must raise
    package = Path(simplexalg.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_tracer_still_reaches_the_racah_layer(monkeypatch):
    # perfbench/tracer.py patches racah and verify names; renaming one of
    # them must fail here rather than break a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer, instrument

    tracer = Tracer()
    with instrument(tracer):
        run_suites(3, 1, (Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7)), SUITES, "strict")
    assert {"racah.printed_build", "racah.assemble"} <= {span[0] for span in tracer.spans}
    assert tracer.counters["racah.coefficient_evals"] > 0


def test_benchmark_reference_still_reaches_the_family_build():
    # perfbench/reference.py times the general family build through these
    # two seams; renaming either must fail here rather than break that script
    gamma = (Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7))
    beta_minus = racah.parameter_maps(gamma, 2, 3)[1]
    op = racah._build_racah_operator(2, beta_minus.values[:4], None)
    assert op.j == 2 and len(op.terms) == 9


def test_no_suite_adds_matrices():
    # every matrix a suite uses, M_j^variant and the hats included, is
    # expanded from one operator: the package's matrices cannot be added
    assert not hasattr(ExactMatrix, "__add__")
    assert not hasattr(ExactMatrix, "zeros")


def test_no_suite_builds_a_dense_inverse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense elimination in a suite")

    monkeypatch.setattr(ExactMatrix, "inverse", refuse)
    monkeypatch.setattr(ExactMatrix, "solve", refuse)
    report = run_suites(3, 2, (Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7)), SUITES, "strict")
    assert report.ok


def test_no_suite_multiplies_matrices():
    # the F relation and the commutation relations follow on each invariant
    # level from the operator identities, so no suite multiplies matrices:
    # the package's matrices cannot be multiplied at all
    assert not hasattr(ExactMatrix, "__matmul__")
    gamma = (Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7), Rat(1, 11))
    assert run_suites(3, 2, gamma[:4], SUITES, "strict").ok
    assert run_suites(4, 1, gamma, SUITES, "strict").ok


def test_no_suite_computes_an_inner_product(monkeypatch):
    # orthogonality follows from the formal symmetry of the generators and
    # the simple joint spectrum of the M_j, so no suite integrates
    def refuse(*args, **kwargs):
        raise AssertionError("simplex moment in a suite")

    monkeypatch.setattr(moments, "inner_product", refuse)
    monkeypatch.setattr(moments, "simplex_moment", refuse)
    gamma = (Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7), Rat(1, 11))
    assert run_suites(3, 2, gamma[:4], SUITES, "strict").ok
    assert run_suites(4, 1, gamma, SUITES, "strict").ok


def test_suites_expand_only_generator_matrices(monkeypatch):
    # the suites expand a generator or a hat, each taken whole as one
    # operator, at most once per name and context; racah checks M_j^+/-
    # as polynomial identities, and every other identity follows from the
    # operators
    expanded = []
    expand = ModuleContext.matrix_of

    def recording(ctx, op, name=None):
        expanded.append((ctx, name))
        return expand(ctx, op, name)

    monkeypatch.setattr(ModuleContext, "matrix_of", recording)
    gamma = (Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7), Rat(1, 11))
    assert run_suites(3, 2, gamma[:4], SUITES, "strict").ok
    assert run_suites(4, 1, gamma, SUITES, "strict").ok
    names = [name for _, name in expanded]
    assert {name[0] for name in names} == {"L", "h"}
    assert [name for name in names if not re.fullmatch(r"L:\d+,\d+|hat:\d+", name or "")] == []
    assert max(Counter((id(ctx), name) for ctx, name in expanded).values()) == 1


def test_a_racah_cell_builds_no_basis_inverse(monkeypatch):
    # the racah suite checks identities of polynomials and expands nothing
    def refuse(ctx):
        raise AssertionError("basis inverse built")

    monkeypatch.setattr(ModuleContext, "_invert_basis", refuse)
    for d, n in ((2, 3), (3, 2), (4, 2)):
        gamma = (Rat(1, 2), Rat(1, 3), Rat(1, 5), Rat(1, 7), Rat(1, 11))[: d + 1]
        (check,) = run_suites(d, n, gamma, ("racah",)).checks
        assert check.status == "pass", check


# the guard of the basis inverse, a real raise, and a racah report, as
# python -O runs them; the report is printed for the comparison below
LAZY_GUARD_PROBE = """
import contextlib
import io
import sys
from pathlib import Path
from simplexalg import cli, verify
from simplexalg.errors import InvariantViolation
from simplexalg.params import ParamVector
from simplexalg.scalar import Rat
lead = verify.lex_lead
verify.lex_lead = lambda nu, poly: lead(nu, poly) * (2 if nu == (1, 1) else 1)
ctx = verify.ModuleContext(2, 2, ParamVector([Rat(1, 2), Rat(1, 3), Rat(1, 5)]))
try:
    ctx.generator_matrix(1, 2)
    print("no raise")
except InvariantViolation as exc:
    print("raises", exc)
verify.lex_lead = lead
out = Path(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):  # the summary line carries timings
    argv = ["verify", "--gamma", "1/2,1/3,1/5,1/7", "--n", "2", "--suite", "racah", "--out", str(out)]
    code = cli.main(argv)
print(code, *(path.read_bytes().hex() for path in sorted(out.iterdir())))
"""


def test_the_lazy_guard_raises_and_racah_reports_alike_under_python_o(tmp_path):
    src = str(Path(simplexalg.__file__).resolve().parents[1])
    runs = []
    for flags in (["-O"], []):
        out = tmp_path / f"out{len(runs)}"
        result = subprocess.run(
            [sys.executable, *flags, "-c", LAZY_GUARD_PROBE, str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        runs.append(result.stdout.splitlines())
    optimized, plain = runs
    assert optimized[0] == "raises P_(1, 1) does not expand to its unit vector"
    assert optimized == plain
    assert optimized[1].startswith("0 ")
