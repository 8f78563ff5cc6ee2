"""Unit tests for the HMAC PRF and key derivation."""

import pytest

from repro.crypto.prf import DIGEST_SIZE, Prf, derive_key

KEY = b"0123456789abcdef0123456789abcdef"


class TestPrf:
    def test_deterministic(self):
        prf = Prf(KEY)
        assert prf.evaluate(b"msg") == prf.evaluate(b"msg")

    def test_message_sensitivity(self):
        prf = Prf(KEY)
        assert prf.evaluate(b"a") != prf.evaluate(b"b")

    def test_key_sensitivity(self):
        assert Prf(KEY).evaluate(b"m") != Prf(KEY[::-1]).evaluate(b"m")

    def test_output_size(self):
        assert len(Prf(KEY).evaluate(b"m")) == DIGEST_SIZE

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            Prf(b"short")

    def test_evaluate_unit_range(self):
        prf = Prf(KEY)
        values = [prf.evaluate_unit(str(i).encode()) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_evaluate_unit_spread(self):
        # Outputs should look uniform — at least hit both halves often.
        prf = Prf(KEY)
        values = [prf.evaluate_unit(str(i).encode()) for i in range(200)]
        low = sum(1 for v in values if v < 0.5)
        assert 60 < low < 140


class TestDeriveKey:
    def test_label_separation(self):
        assert derive_key(KEY, "enc") != derive_key(KEY, "mac")

    def test_deterministic(self):
        assert derive_key(KEY, "x") == derive_key(KEY, "x")

    def test_output_usable_as_prf_key(self):
        Prf(derive_key(KEY, "sub"))

    def test_short_master_rejected(self):
        with pytest.raises(ValueError):
            derive_key(b"tiny", "x")
