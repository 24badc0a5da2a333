"""The public API of src/siegelforms keeps only names something calls.

A public name is a top-level function or class of a module, or a method of
any top-level class (an underscore-named one too), whose name does not
start with an underscore.  It is used when it appears in src/ or
perfbench/ outside its own definition and outside every unused one,
matched by name alone: a function or class as a Name or an Attribute, a
method only as an Attribute (x.name), the one way code outside its class
body reaches it.  So a name that only other unused names call is unused
too.  Every unused name must be declared below with its reason, so a name
whose callers are only tests is either given a caller or deleted with its
tests.  Operators and dataclass fields are not names here: the check
cannot see them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TEST_ONLY = (
    # reference oracles that tests compare the library against
    "census.count_points_ell",  # per-model point count behind the census kernels
    "census.count_points_g2",  # per-model point count behind g2_census_direct_masses
    "census.g2_census_direct_masses",  # per-model genus-2 masses behind g2_census
    "census.squarefree_sextic",  # per-model squarefree test behind g2_census_direct_masses
    "cohom.sp_char",  # per-class character behind the h-moment tables
    "exact_arith.bernoulli_poly",  # B_r(x), the sum behind gen_bernoulli
    "exact_arith.Fq.chi",  # quadratic character behind count_points_g2
    "exact_arith.Fq.elements",  # the point loop of the per-model counters
    "g1_modforms.mat_trace",  # trace of hecke_T, checked against motive_trace
    "g2data.octic_12_9_p2",  # published octic at p = 2 that the quartic factors multiply to
    "hecke_satake.m_count",  # brute-force corank counts behind _m_poly
    "hecke_satake.poly_mul",  # the product sk_spin_factor and standard_factor build with
    "hecke_satake.sk_spin_factor",  # Saito-Kurokawa factor that spin_factor must reproduce
    "siegel_g2.JacobiFormQ.max_D",  # discriminant bound behind V_l
    "siegel_g2.V_l",  # index-raising operator that fourier_jacobi at index 2 must match
    # Satake-parameter names for the T(p) check on Siegel coefficients
    "hecke_satake.SatakeParams",  # the parameters the names below take
    "hecke_satake.SatakeParams.validate",  # checked by eigen_from_params
    "hecke_satake.SatakeElement.substitute",  # evaluation inside eigen_from_params
    "hecke_satake.SatakeParams.eisenstein",  # Eisenstein parameters to compare with T(p)
    "hecke_satake.eigen_from_params",  # lambda(p) and lambda_i(p^2) from parameters
    "hecke_satake.standard_factor",  # standard L-factor of the same parameters
    # names the acceptance criteria assert
    "siegel_g2.diagonal_restriction",  # criterion 07
    "siegel_g2.phi_operator",  # criterion 07
    # methods of private classes
    "census._Census.masses",  # per-class masses that tests compare; the cache writes integer counts
    "cli._Parser.error",  # argparse calls it on every usage error
)


def _public_defs(tree: ast.Module, module: str):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _uses(node: ast.AST, inside: tuple = ()):
    """(name, enclosing definitions, is an Attribute) for each Name and
    Attribute under node."""
    if isinstance(node, ast.Name):
        yield node.id, inside, False
    elif isinstance(node, ast.Attribute):
        yield node.attr, inside, True
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, inside)


def unused_public_names() -> set[str]:
    defs, uses = [], []
    for path in sorted((ROOT / "src" / "siegelforms").glob("*.py")):
        tree = ast.parse(path.read_text())
        defs += _public_defs(tree, path.stem)
        uses += _uses(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        uses += _uses(ast.parse(path.read_text()))
    # a use inside an unused definition is no use: repeat to a fixed point
    unused: dict[str, ast.AST] = {}
    while True:
        dead = set(unused.values())
        found = {
            qualname: node
            for qualname, node in defs
            if not any(
                name == qualname.rsplit(".", 1)[1]
                and (attr or qualname.count(".") == 1)
                and node not in inside
                and dead.isdisjoint(inside)
                for name, inside, attr in uses
            )
        }
        if found.keys() == unused.keys():
            return set(found)
        unused = found


def test_only_declared_names_lack_a_caller():
    assert unused_public_names() == set(TEST_ONLY)
    assert len(TEST_ONLY) == len(set(TEST_ONLY))
