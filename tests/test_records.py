"""The contract of the package's result records: immutable, hashable by
value, and printed by `repr` as `Name(field=value, ...)`."""

import pytest

from monodiv import (
    PolyInt,
    certify,
    factor,
    fueter,
    galois_signature,
    phi_development,
    singular_case,
    survey_family,
    tate_curve,
    three_torsion_quartic,
)
from monodiv.certify import _row
from monodiv.reduction import classify

# (record, a field to assign to), one per record type; each factory builds a
# fresh instance, equal to the one before
RECORDS = {
    "PolygonSide": (lambda: _row(2313, 211).per_phi[0].polygon.sides[0], "degree"),
    "NewtonPolygon": (lambda: _row(2313, 211).per_phi[0].polygon, "points"),
    "PhiReport": (lambda: _row(2313, 211).per_phi[0], "regular"),
    "IndexReport": (lambda: _row(2313, 211), "exact"),
    "Factorization": (lambda: factor(2313 - 8), "factors"),
    "MonogenicityCertificate": (lambda: certify(2313), "verdict"),
    "PhiDevelopment": (
        lambda: phi_development(three_torsion_quartic(2313), PolyInt((-1, 1))),
        "terms",
    ),
    "DivisionPoly": (lambda: fueter(tate_curve(2, 1), 4), "n"),
    "SingularCase": (lambda: singular_case(tate_curve(2, 1), 3), "v"),
    "KodairaType": (lambda: classify(2, 1, 3).kodaira, "kind"),
    "ReductionData": (lambda: classify(2, 1, 3), "c"),
    "GaloisSignature": (lambda: galois_signature(2), "group"),
    "FamilyEntry": (lambda: survey_family("A", (1, 1), (2, 2))[0], "verdict"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_hashable_values(name):
    make, field = RECORDS[name]
    record, again = make(), make()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert record == again and hash(record) == hash(again)


def test_record_repr_is_pinned():
    assert repr(_row(2313, 211)) == (
        "IndexReport(p=211, per_phi=(PhiReport(phi=PolyInt([-1, 1]), exponent=3, "
        "polygon=NewtonPolygon(points=((0, 1), (1, 1), (2, None), (3, 0), (4, 0)), "
        "sides=(PolygonSide(x0=0, y0=1, x1=3, y1=0, degree=1),)), a0_val=1, ind_phi=0, "
        "regular=True),), ind_p_lower_bound=0, exact=True, dedekind=True)"
    )
    assert repr(classify(2, 1, 3)) == (
        "ReductionData(p=3, kodaira=KodairaType(kind='I', n=1), f=1, c=1, "
        "case_tag='tate1-2b', minimal_shift_w=0)"
    )
