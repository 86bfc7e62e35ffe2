import pytest

from epsfc.errors import GuardError
from epsfc.limits import check_bell_guard, check_subset_guard


@pytest.mark.parametrize(
    "check, default, what",
    [
        (check_subset_guard, 24, "coalition enumeration"),
        (check_bell_guard, 12, "set-partition enumeration"),
    ],
)
class TestGuards:
    def test_default_limit_and_message(self, monkeypatch, check, default, what):
        monkeypatch.delenv("EPSFC_MAX_N", raising=False)
        check(default)
        message = f"{what} needs n <= {default}, got n = {default + 1} (set EPSFC_MAX_N to raise)"
        with pytest.raises(GuardError) as info:
            check(default + 1)
        assert str(info.value) == message

    def test_override_and_label(self, monkeypatch, check, default, what):
        monkeypatch.setenv("EPSFC_MAX_N", "30")
        check(30)
        with pytest.raises(GuardError, match="^census needs n <= 30, got n = 31 "):
            check(31, "census")

    def test_non_integer_override(self, monkeypatch, check, default, what):
        monkeypatch.setenv("EPSFC_MAX_N", "ten")
        with pytest.raises(GuardError, match="EPSFC_MAX_N must be an integer, got 'ten'"):
            check(1)
