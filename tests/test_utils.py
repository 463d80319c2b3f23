"""Tests for the shared utility helpers (units, RNG, validation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import derive_seed, derive_seeds, make_rng, spawn_rngs
from repro.utils.units import (
    format_energy,
    format_power,
    format_time,
    joules_to_pj,
    ns,
    pJ,
    seconds_to_ns,
    watts_to_mw,
)
from repro.utils.validation import (
    check_binary,
    check_bipolar,
    check_in_choices,
    check_positive,
    check_power_of_two,
    check_probability,
    check_shape,
)


class TestUnits:
    def test_round_trip_time(self):
        assert seconds_to_ns(5 * ns) == pytest.approx(5.0)

    def test_round_trip_energy(self):
        assert joules_to_pj(3 * pJ) == pytest.approx(3.0)

    def test_watts_to_mw(self):
        assert watts_to_mw(0.002) == pytest.approx(2.0)

    def test_format_time_picks_unit(self):
        assert "ns" in format_time(5e-9)
        assert "us" in format_time(5e-6)
        assert "ms" in format_time(5e-3)
        assert format_time(0) == "0 s"

    def test_format_energy_picks_unit(self):
        assert "pJ" in format_energy(2e-12)
        assert "nJ" in format_energy(2e-9)
        assert "uJ" in format_energy(2e-6)

    def test_format_power_picks_unit(self):
        assert "mW" in format_power(2e-3)
        assert "uW" in format_power(2e-6)


class TestRng:
    def test_default_seed_is_deterministic(self):
        assert make_rng().integers(0, 100) == make_rng().integers(0, 100)

    def test_int_seed(self):
        assert make_rng(7).integers(0, 1000) == make_rng(7).integers(0, 1000)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(3)
        assert make_rng(generator) is generator

    def test_invalid_seed_type_rejected(self):
        with pytest.raises(TypeError):
            make_rng("seed")

    def test_spawn_rngs_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(0, 2**31) != b.integers(0, 2**31)

    def test_spawn_rngs_count_validated(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_derive_seed_depends_on_salt(self):
        assert derive_seed(0, "alpha") != derive_seed(0, "beta")

    #: salts of the regression table: plain words, the empty salt, an
    #: engine flip salt and the two sweep-point salts test_sweep.py pins
    DERIVE_SALTS = ("alpha", "beta", "", "flip/64",
                    "MLP-S/baseline_epcm/128/1/0.05",
                    "MLP-S/einsteinbarrier/128/4/0.05", "0/3")

    @pytest.mark.parametrize("seed, expected", [
        (0, [1826703136, 1826702626, 1826701614, 1826703098, 1826701207,
             1826740036, 1826701321]),
        (21, [647279158, 647278644, 647279672, 647279596, 647285377,
              647242322, 647279903]),
        (np.int64(21), [647279158, 647278644, 647279672, 647279596,
                        647285377, 647242322, 647279903]),
        (None, [1622232188, 1622232702, 1622231666, 1622232486, 1622226123,
                1622268952, 1622231893]),
    ])
    def test_derive_seed_values_are_pinned(self, seed, expected):
        """Memoising the base draw must not move a single derived seed."""
        for _ in range(2):  # cold and memoised draws agree
            assert [derive_seed(seed, salt)
                    for salt in self.DERIVE_SALTS] == expected

    def test_derive_seed_advances_a_generator_seed(self):
        """A Generator is drawn from on every call, never memoised."""
        generator = np.random.default_rng(3)
        assert [derive_seed(generator, "alpha") for _ in range(2)] == \
            [1742694261, 183929671]
        assert [derive_seed(generator, "beta") for _ in range(2)] == \
            [385347062, 508545678]

    def test_derive_seed_rejects_invalid_seed_types(self):
        with pytest.raises(TypeError):
            derive_seed("seed", "alpha")
        with pytest.raises(TypeError):
            derive_seeds("seed", [])


def _salt_loop_seed(seed, salt):
    """The per-character reference: one base draw XOR the salt's sum."""
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**31 - 1))
    else:
        base = int(make_rng(seed).integers(0, 2**31 - 1))
    return base ^ (sum(ord(c) * (i + 1) for i, c in enumerate(salt)) % 2**31)


#: any code point, lone surrogates and astral planes included
_SALTS = st.lists(
    st.one_of(
        st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF,
                              exclude_categories=())),
        st.text(alphabet="\U0010ffff\ud800", min_size=1000, max_size=3000),
        st.just(""),
    ),
    max_size=12,
)


class TestDeriveSeeds:
    @settings(max_examples=200, deadline=None)
    @given(salts=_SALTS, seed=st.one_of(
        st.none(), st.integers(0, 2**63 - 1), st.integers(0, 2**32)))
    def test_equals_the_per_salt_loop(self, salts, seed):
        expected = [_salt_loop_seed(seed, salt) for salt in salts]
        assert derive_seeds(seed, salts) == expected
        assert [derive_seed(seed, salt) for salt in salts] == expected
        assert all(type(value) is int for value in derive_seeds(seed, salts))

    @settings(max_examples=50, deadline=None)
    @given(salts=_SALTS, state=st.integers(0, 2**32))
    def test_generator_is_drawn_once_per_salt(self, salts, state):
        batched, looped = (np.random.default_rng(state) for _ in range(2))
        assert derive_seeds(batched, salts) == \
            [_salt_loop_seed(looped, salt) for salt in salts]
        # both generators advanced by exactly one draw per salt
        assert batched.integers(0, 2**62) == looped.integers(0, 2**62)

    def test_salt_sums_wrap_exactly(self):
        """A salt whose weighted sum overflows int64 keeps exact low bits."""
        salt = "\U0010ffff" * 4_200_000  # sum ~ 9.8e18 > 2**63
        assert derive_seeds(0, [salt, "alpha"]) == \
            [_salt_loop_seed(0, salt), derive_seed(0, "alpha")]


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError):
            check_positive("x", 0.0)
        assert check_positive("x", 0.0, allow_zero=True) == 0.0
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_check_binary(self):
        out = check_binary("b", np.array([0, 1, 1]))
        assert out.dtype == np.int8
        with pytest.raises(ValueError):
            check_binary("b", np.array([0, 2]))
        with pytest.raises(ValueError):
            check_binary("b", np.array([]))

    def test_check_bipolar(self):
        assert check_bipolar("b", np.array([-1, 1])).dtype == np.int8
        with pytest.raises(ValueError):
            check_bipolar("b", np.array([0, 1]))

    def test_check_shape(self):
        arr = np.zeros((2, 3))
        assert check_shape("a", arr, (2, 3)) is not None
        assert check_shape("a", arr, (-1, 3)) is not None
        with pytest.raises(ValueError):
            check_shape("a", arr, (3, 2))
        with pytest.raises(ValueError):
            check_shape("a", arr, (2, 3, 1))

    def test_check_power_of_two(self):
        assert check_power_of_two("n", 64) == 64
        with pytest.raises(ValueError):
            check_power_of_two("n", 65)

    def test_check_in_choices(self):
        assert check_in_choices("m", "a", ["a", "b"]) == "a"
        with pytest.raises(ValueError):
            check_in_choices("m", "c", ["a", "b"])

    @given(st.integers(0, 62))
    def test_powers_of_two_property(self, exponent):
        assert check_power_of_two("n", 2 ** exponent) == 2 ** exponent
