import inspect

import pytest

from rkdirac import suites, transfer as tr
from rkdirac.dyadic import haar_function, inner
from rkdirac.words import all_words, shift


def case_table_error_loop(min_len: int, max_len: int) -> float:
    """Reference: the case table checked one Haar element at a time."""
    worst = 0.0
    for lw in range(min_len, max_len + 1):
        for w in all_words(lw):
            upper, lower = tr.dirac_blocks(tr.Proj(haar_function(w)))
            sw = shift(w)
            for lt in range(1, max_len + 1):
                for wt in all_words(lt):
                    e = haar_function(wt)
                    img_u = upper.apply(e)
                    val_u = inner(img_u, img_u)
                    if wt == w:
                        exp_u = 1.0
                    elif wt == sw:
                        exp_u = 0.5
                    else:
                        exp_u = 0.0
                    img_l = lower.apply(e)
                    val_l = inner(img_l, img_l)
                    if wt == w or (wt.length >= 2 and shift(wt) == w):
                        exp_l = 0.5
                    else:
                        exp_l = 0.0
                    worst = max(worst, abs(val_u - exp_u), abs(val_l - exp_l))
    return worst


class TestCaseTable:
    @pytest.mark.parametrize("lengths", [(2, 4), (1, 3)])
    def test_batched_matches_loop(self, lengths):
        batched = suites._projection_case_table_error(*lengths)
        assert abs(batched - case_table_error_loop(*lengths)) <= 1e-15
        assert batched <= suites.TOL_EXACT

    @pytest.mark.parametrize("keep", [0, 1], ids=["upper-twice", "lower-twice"])
    def test_each_block_is_checked(self, monkeypatch, keep):
        # one block compared against the other block's table is off by 1/2 somewhere
        real = tr.dirac_blocks
        monkeypatch.setattr(tr, "dirac_blocks", lambda a: (real(a)[keep],) * 2)
        assert suites._projection_case_table_error(2, 3) >= 0.5


class TestSuiteDepth:
    def test_depth_suites_are_the_ones_that_read_the_cap(self):
        # suite_depth reports the clamp; it must name exactly the suites that apply it
        for name, run in suites.SUITES.items():
            assert ("DEPTH_CAP" in inspect.getsource(run)) == (name in suites.DEPTH_SUITES), name

    def test_clamp(self):
        assert suites.suite_depth("basis", 12) == suites.DEPTH_CAP == 8
        assert suites.suite_depth("basis", 5) == 5
        assert suites.suite_depth("dirac-mult", 5) is None
