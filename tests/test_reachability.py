"""Every function of ``src/simplexalg`` is executed by some CLI run.

A fixed list of ``simplexalg`` commands runs in-process under
``sys.setprofile``; they cover ``matrix``, ``verify`` and ``sweep``, every
suite, strict and lenient mode, every exit code and a short sweep.  Each
``def`` in the package is keyed by its file and first line (for a decorated
function, the line of its first decorator, which is also its code object's
``co_firstlineno``).  A function that no run calls is either library surface
that nothing uses, which belongs in ``tests/oracles.py`` or nowhere, or it is
in ``ALLOWED`` with the reason it stays.
"""

import ast
import sys
from pathlib import Path

import pytest

import simplexalg
from simplexalg import cli, diffops, racah, verify
from simplexalg.cli import (
    EXIT_DEGENERATE,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_PASS,
    EXIT_USAGE,
)

PACKAGE = Path(simplexalg.__file__).resolve().parent

P2, P3, P4 = "1/2,1/3,1/5", "1/2,1/3,1/5,1/7", "1/2,1/3,1/5,1/7,1/11"

#: (argv, expected exit code); "{out}" is replaced by a fresh directory.
COMMANDS = (
    (("matrix", "--op", "L:1,2", "--d", "2", "--n", "1", "--gamma", "0,0,0", "--out", "{out}/m.json"), EXIT_PASS),
    (("matrix", "--op", "Ltot", "--d", "3", "--n", "2", "--gamma", P3), EXIT_PASS),
    (("matrix", "--op", "M+:2", "--d", "3", "--n", "2", "--gamma", P3), EXIT_PASS),
    (("matrix", "--op", "F:2,3,1,4", "--d", "3", "--n", "1", "--gamma", P3), EXIT_PASS),
    (("matrix", "--op", "R-:2", "--d", "3", "--n", "2", "--gamma", P3), EXIT_PASS),
    (("matrix", "--op", "B12", "--d", "2", "--n", "2", "--gamma", P2), EXIT_PASS),
    (("matrix", "--op", "B123", "--d", "3", "--n", "2", "--gamma", "0,0,0,0"), EXIT_DEGENERATE),
    (("matrix", "--op", "Q:1", "--d", "2", "--n", "1", "--gamma", P2), EXIT_USAGE),
    (("verify", "--gamma", P3, "--n", "1,2", "--out", "{out}/v"), EXIT_PASS),
    (("verify", "--gamma", P4, "--n", "1", "--mode", "lenient"), EXIT_PASS),
    (("verify", "--gamma", P2, "--n", "0,3", "--suite", "spectral,racah,irreducibility"), EXIT_PASS),
    (("verify", "--gamma", "0,0,0,0", "--n", "2", "--suite", "racah"), EXIT_DEGENERATE),
    (("verify", "--gamma", "0,0,0,0", "--n", "2", "--suite", "racah", "--mode", "lenient"), EXIT_PASS),
    (("verify", "--gamma", "-1/2,1/2,1/3", "--n", "1", "--suite", "orthogonality"), EXIT_PASS),
    (("verify", "--gamma=-1,0,0", "--n", "1"), EXIT_INVALID),
    (("verify", "--gamma", "-1/2,-1/2,-1/2", "--n", "2"), EXIT_DEGENERATE),
    (("sweep", "--seed", "3", "--draws", "3", "--d", "2,3", "--n", "1", "--mode", "lenient", "--out", "{out}/s"), EXIT_PASS),
)

#: Runs with ``verify.verify_separation`` patched: to return a failed check,
#: since no command above fails one, and to raise, since an unexpected
#: exception inside a suite ends in the internal-error exit.
FAILED = (("verify", "--gamma", P2, "--n", "1", "--suite", "separation"), EXIT_FAIL)
FAULTED = (("verify", "--gamma", P2, "--n", "1", "--suite", "separation"), EXIT_INTERNAL)

#: "file.py:Qualified.name" -> why the function stays although no run calls it.
ALLOWED = {
    "diffops.py:DiffOp.__setattr__": "immutability guard: raises on any attribute write",
    "diffops.py:DiffOp.__repr__": "debugging display",
    "linalg.py:ExactMatrix.__setattr__": "immutability guard: raises on any attribute write",
    "linalg.py:ExactMatrix.__repr__": "debugging display",
    "poly.py:MultiPoly.__setattr__": "immutability guard: raises on any attribute write",
    "poly.py:MultiPoly.__hash__": "MultiPoly defines __eq__ and stays hashable",
    "poly.py:MultiPoly.__repr__": "debugging display",
    "params.py:ParamVector.__repr__": "debugging display",
    "params.py:ParamVector.__len__": "sequence protocol of a gamma vector; the moment seam calls it",
    "errors.py:SingularSystem.__init__": "error constructor: runs only when a solve is singular",
    "racah.py:RacahOp.assemble": (
        "benchmark seam: perfbench/tracer.py hooks it for racah.assemble_s; "
        "it leaves src with ROADMAP item 1"
    ),
    "linalg.py:ExactMatrix.inverse": (
        "benchmark seam: perfbench/tracer.py hooks it for linalg.inverse_s; "
        "it leaves src with ROADMAP item 1"
    ),
    "linalg.py:ExactMatrix.solve": "called by the benchmark seam ExactMatrix.inverse (ROADMAP item 1)",
    "linalg.py:ExactMatrix.identity": "called by the benchmark seam ExactMatrix.inverse (ROADMAP item 1)",
    "moments.py:simplex_moment": (
        "benchmark seam: perfbench/tracer.py hooks it for moments.*; "
        "it leaves src with ROADMAP item 1"
    ),
    "moments.py:inner_product": (
        "benchmark seam: perfbench/tracer.py hooks it for moments.inner_product_s; "
        "it leaves src with ROADMAP item 1"
    ),
    "racah.py:_build_racah_operator": (
        "benchmark seam until ROADMAP item 1: perfbench/tracer.py and reference.py call it"
    ),
    "racah.py:_racah_operator_cached": "benchmark seam until ROADMAP item 1: perfbench/tracer.py hooks it",
    "racah.py:parameter_maps": "benchmark seam until ROADMAP item 1: perfbench/reference.py builds beta- with it",
    "racah.py:ZFraction.reduce": "benchmark seam until ROADMAP item 1: perfbench/tracer.py hooks it",
}

# what the benchmark seam racah._build_racah_operator calls, and no CLI run
ALLOWED.update(
    (name, "called only by the benchmark seam racah._build_racah_operator until ROADMAP item 1")
    for name in (
        "racah.py:racah_coefficient",
        "racah.py:kernel_poly",
        "racah.py:_zvar",
        "racah.py:divide_linear",
        "racah.py:ZFraction.__init__",
        "racah.py:ZFraction.mul_scalar",
        "racah.py:ZFraction.div_linear",
        "racah.py:ZFraction.add",
        "racah.py:ZFraction.involution",
        "racah.py:ZFraction.subs_const",
        "poly.py:MultiPoly.subs_affine",
        "poly.py:MultiPoly.subs_value",
    )
)


def defined_functions(package: Path = PACKAGE) -> dict:
    """(absolute file, first line) -> "file.py:Qualified.name" for every
    ``def`` in the package, nested ones included."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(str(path), line)] = f"{path.name}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), "")
    return found


def _fail(ctx):
    return verify.CheckResult("separation", "fail", "injected failure")


def _raise(*args):
    raise RuntimeError("injected fault")


def _clear_caches():
    """Forget every memoized result, so that what a run computes is called
    whatever ran before it in this process."""
    for module in (diffops, verify, racah):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    racah._RACAH_CACHE.clear()


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    out = tmp_path_factory.mktemp("reach")
    files = {str(path.resolve()) for path in PACKAGE.glob("*.py")}
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in files:
                calls.add((code.co_filename, code.co_firstlineno))

    codes = []
    _clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in COMMANDS:
            codes.append(cli.main([token.replace("{out}", str(out)) for token in argv]))
        for replacement, (argv, _) in ((_fail, FAILED), (_raise, FAULTED)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verify, "verify_separation", replacement)
                codes.append(cli.main(list(argv)))
    finally:
        sys.setprofile(previous)
        _clear_caches()
    return calls, codes


def test_commands_end_with_their_documented_exit_codes(reached):
    _, codes = reached
    assert codes == [code for _, code in COMMANDS + (FAILED, FAULTED)]
    assert set(codes) == {EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INVALID, EXIT_DEGENERATE, EXIT_INTERNAL}


def test_commands_cover_every_subcommand_suite_and_mode():
    argvs = [argv for argv, _ in COMMANDS]
    assert {argv[0] for argv in argvs} == {"matrix", "verify", "sweep"}
    assert {"--mode", "lenient"} <= {token for argv in argvs for token in argv}
    suites = set()
    for argv in argvs:
        if argv[0] != "matrix":
            text = argv[argv.index("--suite") + 1] if "--suite" in argv else "all"
            suites |= set(verify.SUITES) if text == "all" else set(text.split(","))
    assert suites == set(verify.SUITES)


def test_every_function_is_reached_by_a_cli_run(reached):
    calls, _ = reached
    unreached = sorted(
        name for key, name in defined_functions().items() if key not in calls and name not in ALLOWED
    )
    assert unreached == [], "not called by any CLI run: " + ", ".join(unreached)


def test_allow_list_names_existing_functions_with_reasons():
    names = set(defined_functions().values())
    assert sorted(set(ALLOWED) - names) == []
    assert [name for name, reason in ALLOWED.items() if not reason.strip()] == []


def test_allowed_functions_are_not_reached(reached):
    # an entry whose function a run now calls no longer needs its reason
    calls, _ = reached
    reached_names = {name for key, name in defined_functions().items() if key in calls}
    assert sorted(set(ALLOWED) & reached_names) == []
