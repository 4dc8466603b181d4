"""The package's public surface: the names `umbra` exports, and where each is declared."""

import ast
import pkgutil
from pathlib import Path

import umbra

#: `umbra.__all__` as a set: the package's version, `Rational` and each module's share.
PUBLIC = sorted("""
    __version__ Rational
    UmbraError NotInvertible CompositionOrder NotDelta ExpConstantTerm TruncationTooShort
    SingularBasis LambdaIsOne RegimeViolation
    INFINITE TruncatedSeries as_rational
    Poly falling_factorial stirling1 stirling2
    ShefferPair ConnectionMatrix pair_functional operator_apply eval_functional sheffer_poly
    sheffer_polys connection_coeffs connection_oracle
    FamilyKind FamilySpec hermite bernoulli euler frobenius_euler sheffer_pair_of family_poly
    family_polys family_number family_numbers hermite_poly_via_operator
    THEOREM_IDS DEFAULT_LAMBDAS IdentityReport Mismatch lambda_samples t1_coeff t2_coeff
    t3_coeff t4_coeff t5_coeff t6_coeff t7_coeff t8_coeff remark_coeff verify_theorem
""".split())


MODULES = ("errors", "series", "polynomials", "umbral", "families", "identities")


def test_the_public_surface_is_pinned_and_each_name_is_declared_once():
    assert len(PUBLIC) == len(set(umbra.__all__)) == len(umbra.__all__) == 54
    assert sorted(umbra.__all__) == PUBLIC
    namespace = {}
    exec("from umbra import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC
    submodules = {info.name for info in pkgutil.iter_modules(umbra.__path__)}
    assert "cli" in submodules and not submodules & set(umbra.__all__)

    # each name in exactly one module's __all__, bound there and exported as that object
    modules = [getattr(umbra, module) for module in MODULES]
    declared = [name for module in modules for name in module.__all__]
    assert sorted(declared) == sorted(set(PUBLIC) - {"__version__", "Rational"})
    for module in modules:
        for name in module.__all__:
            assert name in vars(module) and getattr(umbra, name) is vars(module)[name], name
    # and the package's own source spells out no public name but these two
    tree = ast.parse(Path(umbra.__file__).read_text())
    spelled = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    spelled |= {alias.asname or alias.name for node in ast.walk(tree) for alias in
                getattr(node, "names", ()) if isinstance(node, ast.ImportFrom)}
    spelled |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert spelled & set(PUBLIC) == {"__version__", "Rational"}
