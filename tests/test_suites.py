import pytest

from rkdirac import suites, transfer as tr
from rkdirac.dyadic import constant, haar_function, inner
from rkdirac.words import EPSILON, all_words, shift, words_up_to


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
    @pytest.mark.parametrize("requested, ran", [(3, 3), (8, 8), (12, 8)])
    def test_each_suite_receives_the_depth_it_runs_at(self, monkeypatch, requested, ran):
        received = {}

        def recording(name, run):
            def wrapped(depth, seed):
                received[name] = depth
                return run(depth, seed)

            return wrapped

        for name, run in list(suites.SUITES.items()):
            monkeypatch.setitem(suites.SUITES, name, recording(name, run))
        report = suites.run_suite("all", depth=requested, seed=0)
        assert report.passed
        reads = {"basis", "transfer", "boson", "fermion", "wold"}
        assert received == {name: ran if name in reads else None for name in suites.SUITES}
        assert {name: r["depth"] for name, r in report.runs.items()} == received

    @pytest.mark.parametrize("requested", [2, 0, -1])
    def test_a_depth_below_the_floor_is_refused_before_any_suite_runs(self, monkeypatch, requested):
        ran = []
        monkeypatch.setitem(suites.SUITES, "adjudication", lambda depth, seed: ran.append(seed) or [])
        with pytest.raises(ValueError, match="at least 3"):
            suites.run_suite("all", depth=requested, seed=0)
        assert ran == []
        # a suite that ignores the depth still runs at any request
        assert suites.run_suite("dirac-condexp", depth=requested, seed=0).passed

    def test_clamp(self):
        assert suites.suite_depth("basis", 12) == suites.DEPTH_CAP == 8
        assert suites.suite_depth("basis", 5) == 5
        assert suites.suite_depth("dirac-mult", 5) is None


class TestBosonGrid:
    @staticmethod
    def _stub_states(monkeypatch):
        """Record the chain_shift_check calls; stub the states so a deep grid costs nothing."""
        calls = []

        def check(n, w):
            calls.append((n, w))
            return {"errors": {"raise": 0.0, "lower": 0.0, "power": 0.0}}

        monkeypatch.setattr(suites.bo, "chain_shift_check", check)
        monkeypatch.setattr(suites, "state_nw", lambda n, w: constant(0.0))
        return calls

    def test_every_pair_of_the_grid_is_checked(self, monkeypatch):
        calls = self._stub_states(monkeypatch)
        assert all(c.status != "fail" for c in suites.run_boson(3, 0, n_max=16, w_max_len=2))
        words = [None, EPSILON] + list(words_up_to(2))
        assert calls == [(n, w) for w in words for n in range(17)]
        assert len(calls) == 8 * 17

    @pytest.mark.parametrize("n_max, w_max_len", [(19, 2), (17, 4), (1, 0)])
    def test_a_grid_inside_the_caps_runs_in_full(self, monkeypatch, n_max, w_max_len):
        calls = self._stub_states(monkeypatch)
        suites.run_boson(3, 0, n_max=n_max, w_max_len=w_max_len)
        assert max(n + (0 if w is None else w.length) for n, w in calls) == n_max + w_max_len

    @pytest.mark.parametrize("n_max, w_max_len", [(19, 3), (18, 4), (20, 0), (0, 2), (-1, 3), (4, -1)])
    def test_a_grid_past_a_cap_is_refused_before_any_work(self, monkeypatch, n_max, w_max_len):
        calls = self._stub_states(monkeypatch)
        with pytest.raises(ValueError, match="boson grid"):
            suites.run_boson(3, 0, n_max=n_max, w_max_len=w_max_len)
        assert calls == []
