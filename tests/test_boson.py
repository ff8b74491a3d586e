import numpy as np
import pytest

from rkdirac.boson import (
    annihilation,
    car_anticommutator,
    ccr_defect,
    chain_shift_check,
    creation,
    number_apply,
)
from rkdirac.dyadic import (
    constant,
    inner,
    is_close,
    l2_dist,
    l2_norm,
    random_function,
    state_n,
    state_nw,
)
from rkdirac.transfer import coords, kernel_projection, koopman_apply
from rkdirac.words import EPSILON, Word, all_words, words_up_to

INV_SQRT2 = 2.0 ** -0.5


def w(text):
    return Word.from_string(text)


class TestLadderRelations:
    @pytest.mark.parametrize("n", range(0, 5))
    def test_creation_raises_level(self, n):
        assert l2_dist(creation(state_n(n)), INV_SQRT2 * state_n(n + 1)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 5))
    def test_annihilation_lowers_level(self, n):
        assert l2_dist(annihilation(state_n(n)), INV_SQRT2 * state_n(n - 1)) < 1e-12

    def test_vacuum_annihilated(self):
        assert l2_norm(annihilation(state_n(0))) < 1e-12

    def test_kernel_states_annihilated(self):
        for word in [EPSILON] + list(words_up_to(3)):
            assert l2_norm(annihilation(state_nw(0, word))) < 1e-12

    def test_repeated_creation_on_vacuum(self):
        for n in range(1, 5):
            powered = state_n(0)
            for _ in range(n):
                powered = creation(powered)
            assert l2_dist(powered, 2.0 ** (-n / 2) * state_n(n)) < 1e-12

    def test_repeated_creation_on_kernel_states(self):
        for word in [EPSILON] + list(words_up_to(3)):
            for n in range(1, 5):
                powered = state_nw(0, word)
                for _ in range(n):
                    powered = creation(powered)
                assert l2_dist(powered, 2.0 ** (-n / 2) * state_nw(n, word)) < 1e-12


class TestNumberOperator:
    def test_halves_lifted_chain_states(self):
        for n in range(1, 4):
            for word in [None, EPSILON] + list(words_up_to(2)):
                st = state_nw(n, word)
                assert l2_dist(number_apply(st), 0.5 * st) < 1e-12

    def test_halves_constants(self):
        assert is_close(number_apply(constant(1.0)), 0.5 * constant(1.0), atol=1e-12)

    def test_kills_kernel_level(self):
        # annihilation acts first, so the kernel level maps to zero, not half
        for word in [None, EPSILON, w("01")]:
            assert l2_norm(number_apply(state_nw(0, word))) < 1e-12


class TestGeneralizedCommutator:
    def test_equals_half_kernel_projection(self):
        for seed in range(100):
            f = random_function(seed, 8)
            assert l2_dist(ccr_defect(f), 0.5 * kernel_projection(f)) < 1e-12

    def test_fixes_kernel_states_with_weight_half(self):
        for word in [None, EPSILON] + list(words_up_to(3)):
            st = state_nw(0, word)
            assert l2_dist(ccr_defect(st), 0.5 * st) < 1e-12

    def test_kills_koopman_range(self):
        g = random_function(5, 6)
        assert l2_norm(ccr_defect(koopman_apply(g))) < 1e-12

    def test_matches_explicit_kernel_family_projector(self):
        # Independent oracle: build the rank-2**(d-1) projector from the
        # kernel-level chain states and compare matvecs.
        d = 6
        family = [state_n(0)] + [
            state_nw(0, word) for ell in range(d - 1) for word in all_words(ell)
        ]
        assert len(family) == 1 << (d - 1)
        mat = np.stack([coords(f, d) for f in family])
        projector = mat.T @ mat
        for seed in range(20):
            f = random_function(seed, d)
            expected_coords = 0.5 * (projector @ coords(f, d))
            got = coords(ccr_defect(f), d)
            assert np.max(np.abs(got - expected_coords)) < 1e-12

    def test_vacuum_weight_is_half(self):
        # the defect scales the vacuum by 1/2 (not 1): the kernel-projection
        # form wins over the competing weight-one candidate
        vac = state_n(0)
        assert inner(ccr_defect(vac), vac) == pytest.approx(0.5, abs=1e-12)


class TestAnticommutator:
    def test_identity_off_first_coordinate(self):
        for seed in range(100):
            phi = random_function(seed, 8, "independent-of-first-coordinate")
            assert l2_dist(car_anticommutator(phi), phi) < 1e-12

    def test_preserves_integrals(self):
        one = constant(1.0)
        for seed in range(100):
            phi = random_function(seed + 500, 8)
            assert abs(inner(car_anticommutator(phi), one) - inner(phi, one)) < 1e-12

    def test_halves_kernel_states(self):
        for word in [EPSILON, w("0"), w("11")]:
            st = state_nw(0, word)
            assert l2_dist(car_anticommutator(st), 0.5 * st) < 1e-12


def one_word(word):
    """The (length, column slice) of a single word's column in its chain batch."""
    return word.length, slice(word.bits, word.bits + 1)


class TestChainShiftCheck:
    def test_interior_level(self):
        report = chain_shift_check(2, *one_word(w("0")))
        assert set(report["errors"]) == {"raise", "lower", "power"}
        assert max(report["errors"].values()) <= 1e-12

    def test_vacuum_boundary(self):
        report = chain_shift_check(0, None)
        assert max(report["errors"].values()) <= 1e-12
        assert "lower" not in report["errors"]  # nothing below the vacuum

    def test_empty_word_chain(self):
        report = chain_shift_check(3, *one_word(EPSILON))
        assert max(report["errors"].values()) <= 1e-12

    def test_kernel_level_of_word_chain_checks_annihilation(self):
        report = chain_shift_check(0, *one_word(w("10")))
        assert max(report["errors"].values()) <= 1e-12
        assert report["errors"]["lower"] < 1e-12

    @pytest.mark.parametrize("length", [0, 1, 2, 3])
    def test_a_whole_batch_is_the_worst_of_its_columns(self, length):
        for n in range(5):
            batch = chain_shift_check(n, length)["errors"]
            columns = [chain_shift_check(n, *one_word(u))["errors"] for u in all_words(length)]
            assert batch == {key: max(c[key] for c in columns) for key in batch}
            assert max(batch.values()) <= 1e-12

    def test_a_column_slice_reads_only_its_words(self, monkeypatch):
        # a wrong state in column 3 of the length-2 batch shows in every slice
        # that holds it, and in no other
        from rkdirac import boson

        build = boson.chain_batch

        def broken(n, length, cols=slice(None)):
            x = build(n, length, slice(None)).copy()
            x[:, 3] *= 1.5 if n == 2 else 1.0
            return x[:, cols]

        monkeypatch.setattr(boson, "chain_batch", broken)
        assert chain_shift_check(2, 2)["errors"]["raise"] > 0.1
        assert chain_shift_check(2, 2, slice(3, 4))["errors"]["raise"] > 0.1
        assert chain_shift_check(2, 2, slice(0, 3))["errors"]["raise"] <= 1e-12
