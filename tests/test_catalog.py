"""Catalog transcription and cross-validation against the generated families."""

import random

import pytest

from wh3 import catalog, ncalg
from wh3.catalog import CMatrix
from wh3.exprs import parse_element, parse_scalar
from wh3.ncalg import span_compare
from wh3.scalars import Scalar


def sparsity_ok(M: CMatrix) -> bool:
    """Nonzero cells lie on the (i,j)/(j,i) pattern or in the two (.,.)->(3,3) slots."""
    return all(
        col in (row, row[::-1]) or (col == (3, 3) and row in ((1, 2), (2, 1)))
        for row, col, _ in M.nonzero_cells()
    )


def test_omega_corner_entry():
    assert catalog.omega().entry((1, 1), (1, 1)) == parse_scalar("q/u^2")


def test_omega_sparsity_pattern():
    om = catalog.omega()
    assert sparsity_ok(om)
    assert om.entry((1, 2), (3, 3)) == parse_scalar("q*s/u^2")
    assert om.entry((2, 1), (3, 3)) == parse_scalar("-s/q")


def test_omega_times_inverse_is_identity():
    om, oi = catalog.omega(), catalog.omega_inverse()
    ident = CMatrix.identity()
    assert om @ oi == ident
    assert oi @ om == ident


def test_omega_self_inverse_at_q_u_squared():
    bind = {"q": parse_scalar("u^2")}
    assert catalog.omega().substitute(bind) == catalog.omega_inverse().substitute(bind)


def test_identity_matrix_helpers():
    ident = CMatrix.identity()
    assert sparsity_ok(ident)
    mutated = ident.with_entry((1, 1), (2, 2), Scalar.one())
    assert not sparsity_ok(mutated)
    assert ident == ident @ ident


def test_family_counts_and_first_rows():
    xx = catalog.family("xx")
    assert len(xx.relations) == 3
    assert xx.relations[0].format() == "x1*x2 - q*x2*x1 - s*x3*x3"
    xixi = catalog.family("xixi")
    assert len(xixi.relations) == 6
    assert any(r.format() == "xi1*xi1" for r in xixi.relations)
    tt = catalog.family("tt")
    assert len(tt.relations) == 36  # one straightening row per misordered pair
    assert len(catalog.family("tdinv").relations) == 9
    with pytest.raises(KeyError):
        catalog.family("nonsense")


def test_family_alias_names():
    assert catalog.family("R_xx") is catalog.family("xx")


def test_generated_families_match_transcription():
    target = catalog.calculus_alphabet()
    om, oi = catalog.omega(), catalog.omega_inverse()
    for variant, matrix, inverse in (("omega", om, oi), ("omega-inv", oi, om)):
        for kind, fid in (("xxi", f"xxi-{variant}"), ("dxi", f"dxi-{variant}"),
                          ("xd", f"xd-{variant}"), ("xixi", "xixi")):
            generated = catalog.generate_from_C(matrix, inverse, kind).relations
            transcribed = [ncalg.algebra_map(r, target) for r in catalog.family(fid).relations]
            assert span_compare(generated, transcribed).verdict == "equal", (variant, kind)


def test_generate_from_identity_braiding():
    fam = catalog.generate_from_C(CMatrix.identity(), CMatrix.identity(), "xxi")
    A = fam.alphabet
    expected = {
        frozenset({(A.rank_of(f"x{k}"), A.rank_of(f"xi{l}")),
                   (A.rank_of(f"xi{k}"), A.rank_of(f"x{l}"))})
        for k in (1, 2, 3) for l in (1, 2, 3)
    }
    got = {frozenset(r.terms) for r in fam.relations}
    assert got == expected  # x^k xi^l = xi^k x^l


def test_rtt_generation_span_equalities():
    gen = catalog.rtt_generate(catalog.omega()).relations
    gen_inv = catalog.rtt_generate(catalog.omega_inverse()).relations
    fam = catalog.family("tt").relations
    assert span_compare(gen, fam).verdict == "equal"
    assert span_compare(gen, gen_inv).verdict == "equal"
    cmp = span_compare(gen, fam)
    assert (cmp.rank_a, cmp.rank_b) == (36, 36)


def test_rtt_generation_verbatim_rows_differ():
    gen = catalog.rtt_generate(catalog.omega()).relations
    verbatim = catalog.family("tt", errata=False).relations
    from wh3.linalg import ScalarEchelon
    ech = ScalarEchelon()
    for rel in gen:
        if not rel.is_zero:
            ech.insert(dict(rel.terms))
    outside = [idx for idx, rel in enumerate(verbatim) if ech.reduce(dict(rel.terms))]
    assert outside == [entry.index for entry in catalog.ERRATA if entry.family == "tt"]


def test_rtt_classical_limit():
    # under the exchange convention certified by the omega table, the flip
    # matrix is the classical braiding: it generates exactly the commutators,
    # while the identity matrix generates no relations at all
    flip = CMatrix.from_table({((i, j), (j, i)): "1" for i in (1, 2, 3) for j in (1, 2, 3)})
    fam = catalog.rtt_generate(flip)
    A = fam.alphabet
    commutators = []
    one = Scalar.one()
    names = A.names()
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            commutators.append(ncalg.Element(A, {(a, b): one, (b, a): -one}))
    assert span_compare(fam.relations, commutators).verdict == "equal"
    assert all(r.is_zero for r in catalog.rtt_generate(CMatrix.identity()).relations)


def test_quantum_determinant_coefficients():
    D = catalog.quantum_determinant()
    A = catalog.t_alphabet()

    def word(*names):
        return tuple(A.rank_of(n) for n in names)

    assert D.coefficient(word("t11", "t22", "t33")) == Scalar.one()
    assert D.coefficient(word("t12", "t23", "t31")) == parse_scalar("u^3/q^3")
    assert len(D.terms) == 6


def test_counit_values():
    assert catalog.counit_value(catalog.quantum_determinant()) == Scalar.one()
    for rel in catalog.family("tt").relations:
        assert catalog.counit_value(rel).is_zero
    for rel in catalog.family("tt", errata=False).relations:
        assert catalog.counit_value(rel).is_zero  # typos are counit-invisible


def _counit_by_words(e):
    """The counit as a loop over words: t^i_j -> delta_ij, Dinv -> 1."""
    total = Scalar.zero()
    for word, coeff in e.terms.items():
        names = [e.alphabet.generators[g].name for g in word]
        if all(n == "Dinv" or (n[0] == "t" and n[1] == n[2]) for n in names):
            total = total + coeff
    return total


def test_counit_value_on_dinv_words():
    qg = catalog.qg_alphabet()
    samples = [
        "Dinv", "Dinv*t11*Dinv*t22 - 3*t12*Dinv + (q/u)*t33*Dinv*Dinv", "t13*t31 + s",
        *(r.format() for r in catalog.family("tdinv").relations),
        *(r.format() for r in catalog.family("tdinv", errata=False).relations),
    ]
    for text in samples:
        e = parse_element(text, qg)
        assert catalog.counit_value(e) == _counit_by_words(e), text
    dinv = ncalg.Element.generator(qg, "Dinv")
    for row in catalog.cofactor_matrix():
        for cofactor in row:
            entry = ncalg.algebra_map(cofactor, qg) * dinv
            assert catalog.counit_value(entry) == _counit_by_words(entry)
    assert catalog.counit_value(parse_element("Dinv*t11*Dinv*t22 - 3*t12*Dinv", qg)) == \
        Scalar.one()


def test_dinv_factor_table():
    assert catalog.dinv_factor("t11") == Scalar.one()
    assert catalog.dinv_factor("t21") == parse_scalar("q^4/u^2")
    assert catalog.dinv_factor("t12") == parse_scalar("u^2/q^4")
    # verbatim unswapped rows carry no usable factor; clean rows do
    assert catalog.dinv_factor("t13", errata=False) == parse_scalar("u/q^2")
    assert catalog.dinv_factor("t12", errata=False).is_zero
    assert catalog.dinv_factor("t23", errata=False).is_zero


def test_star_map_involutive_and_antimultiplicative():
    mapping = catalog.star_generator_map()
    assert all(mapping[mapping[k]] == k for k in mapping)
    A = catalog.t_alphabet()
    a = ncalg.Element.generator(A, "t12")
    b = ncalg.Element.generator(A, "t33")
    assert catalog.star_apply(a * b) == catalog.star_apply(b) * catalog.star_apply(a)
    assert catalog.star_apply(catalog.star_apply(a * b - b)) == a * b - b


def test_errata_entries_are_well_formed():
    by_family = {}
    for entry in catalog.ERRATA:
        by_family.setdefault(entry.family, []).append(entry.index)
    assert by_family == {
        "dd": [0, 1, 2],          # transposed-variance derivative rows
        "dxi-omega": [0],         # d3*xi3 row
        "xd-omega-inv": [4],      # d3*x2 row
        "tt": [9, 25],            # two straightening tails
        "tdinv": [1, 4, 5, 7],    # three unswapped rows plus the t21 factor
    }
    for entry in catalog.ERRATA:
        fam_verbatim = catalog.family(entry.family, errata=False)
        fam_corrected = catalog.family(entry.family, errata=True)
        assert fam_verbatim.relations[entry.index].format() != \
            fam_corrected.relations[entry.index].format()
        assert entry.justification
        # corrected and verbatim strings both parse over the family alphabet
        from wh3.exprs import parse_element
        parse_element(entry.verbatim, fam_verbatim.alphabet)
        parse_element(entry.corrected, fam_verbatim.alphabet)


def test_rank_stability_under_random_specialization():
    # span ranks computed symbolically survive random numeric parameters
    rng = random.Random(2)
    from fractions import Fraction
    bindings = {
        "q": Fraction(rng.randrange(2, 30), rng.randrange(2, 30)),
        "u": Fraction(rng.randrange(2, 30), rng.randrange(2, 30)),
        "s": Fraction(rng.randrange(1, 30), rng.randrange(1, 30)),
    }
    for fid, expected in (("xx", 3), ("xixi", 6), ("dd", 3), ("tt", 36)):
        fam = catalog.family(fid)
        symbolic = span_compare(fam.relations, fam.relations).rank_a
        specialized = [r.substitute_params(bindings) for r in fam.relations]
        numeric = span_compare(specialized, specialized).rank_a
        assert symbolic == numeric == expected
