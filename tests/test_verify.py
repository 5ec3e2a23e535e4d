"""The cross-module check suite must pass on every canonical set."""

from thetagw import CANONICAL_SETS, validate_classify, verify_set, verify_suite


def test_canonical_sets_cover_all_nine():
    ids = []
    for raw in CANONICAL_SETS:
        _, tag = validate_classify(raw)
        ids.append(tag.case_id)
    assert ids == [f"case{k}" for k in range(1, 10)]


def test_verify_set_names(desk):
    p, tag = desk["case6"]
    checks = verify_set(p, tag)
    names = {c.name for c in checks}
    assert {"iterate_identity", "pmf_oracle", "absorption_vs_iteration",
            "embed_one_step", "embed_quadrature"} <= names
    assert all(c.passed for c in checks)


def test_verify_set_pure_death():
    p, tag = validate_classify({"theta": -1.0, "a": 0.5, "q": 1.0})
    checks = verify_set(p, tag)
    assert len(checks) == 6
    assert all(c.passed for c in checks), checks


def test_full_suite_passes():
    checks = verify_suite(seed=0)
    assert len(checks) >= 9 * 6
    failures = [c for c in checks if not c.passed]
    assert not failures, failures
